"""Stream cellular samples through the online LHMM matcher.

Simulates a live feed: points arrive one at a time, and the fixed-lag
decoder commits road segments a few samples behind the head — the mode a
real traffic-monitoring deployment would run in.  Compares the streamed
result against the batch matcher and renders both as an ASCII map.

Run with::

    python examples/online_streaming.py           # in-process decoder
    python examples/online_streaming.py --serve   # through the HTTP service

With ``--serve`` the script saves the dataset and model, boots a local
:class:`repro.serve.ClusterServer` gateway (one forked matcher worker) on a
free port, and drives the identical workload over HTTP with
:class:`repro.serve.MatchingClient` — the streamed path and the batch path
are byte-identical to the in-process ones; only the transport changes.
"""

import argparse
import tempfile
from pathlib import Path

from repro import LHMM, LHMMConfig, make_city_dataset
from repro.core import OnlineLHMM
from repro.eval.metrics import corridor_mismatch_fraction
from repro.viz import render_match_ascii

LAG = 3


def stream_in_process(matcher, sample):
    """Feed the fixed-lag decoder directly, printing per-point progress."""
    online = OnlineLHMM(matcher, lag=LAG)
    for i, point in enumerate(sample.cellular.points):
        online.add_point(point)
        print(
            f"  t={point.timestamp:6.0f}s  point {i + 1:>2}  "
            f"committed {len(online.committed_path):>2} segments, "
            f"{online.pending_points()} pending"
        )
    streamed_path = online.finish()
    batch_path = matcher.match(sample.cellular).path
    return streamed_path, batch_path


def stream_over_http(matcher, dataset, sample):
    """The same workload through the HTTP service on a free local port."""
    from repro.datasets import save_dataset
    from repro.serve import (
        ClusterConfig,
        ClusterServer,
        MatchingClient,
        ShardRegistry,
        ShardSpec,
    )

    with tempfile.TemporaryDirectory() as root:
        dataset_path = Path(root) / "city.json.gz"
        model_path = Path(root) / "model.npz"
        save_dataset(dataset, dataset_path)
        matcher.save(model_path)
        registry = ShardRegistry.publish(
            [ShardSpec(region="default", dataset=str(dataset_path),
                       model=str(model_path))]
        )
        config = ClusterConfig(port=0, num_workers=1)
        with ClusterServer(registry, config) as server:
            print(f"  (serving on {server.address})")
            client = MatchingClient(server.host, server.port)
            with client.create_session(lag=LAG) as session:
                for i, point in enumerate(sample.cellular.points):
                    state = session.feed(point)
                    print(
                        f"  t={point.timestamp:6.0f}s  point {i + 1:>2}  "
                        f"committed {len(state['committed']):>2} segments, "
                        f"{state['pending']} pending"
                    )
                streamed_path = session.close()
            batch_path = client.match([sample.cellular])[0]["path"]
    return streamed_path, batch_path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--serve",
        action="store_true",
        help="route the stream through a local repro.serve HTTP server",
    )
    args = parser.parse_args()

    print("Building city and training LHMM ...")
    dataset = make_city_dataset("hangzhou", num_trajectories=150, rng=4)
    matcher = LHMM(LHMMConfig(epochs=4), rng=0).fit(dataset)

    sample = dataset.test[0]
    mode = "over HTTP" if args.serve else "in process"
    print(
        f"\nStreaming trajectory {sample.sample_id} "
        f"({len(sample.cellular)} points, {mode}):"
    )
    if args.serve:
        streamed_path, batch_path = stream_over_http(matcher, dataset, sample)
    else:
        streamed_path, batch_path = stream_in_process(matcher, sample)

    streamed_cmf = corridor_mismatch_fraction(
        dataset.network, sample.truth_path, streamed_path
    )
    batch_cmf = corridor_mismatch_fraction(
        dataset.network, sample.truth_path, batch_path
    )
    print(f"\nstreamed CMF50 = {streamed_cmf:.3f}   batch CMF50 = {batch_cmf:.3f}")
    print("(the batch matcher additionally applies shortcut optimisation)\n")

    print(
        render_match_ascii(
            dataset.network,
            sample.truth_path,
            {"S": streamed_path, "B": batch_path},
            sample.cellular,
            width=76,
            height=24,
        )
    )


if __name__ == "__main__":
    main()
