"""The similarity service: served joins equal direct engine calls.

Starts the asyncio CSJ service on an embedded event-loop thread,
registers two paper couples, and joins one couple twice — once over the
wire, once directly through a `BatchEngine` — asserting the served
similarity and matching are identical.  Then it streams a few
subscriptions through `mutate` and shows the next served join picking
up the new community version, plus the service's own stats (admission,
shedding, cache, latency counters).

Run:  python examples/similarity_service.py
"""

from __future__ import annotations

import json

from repro import BatchEngine, PairJob, VKGenerator, build_couple
from repro.datasets import PAPER_COUPLES
from repro.serve import CommunityStore, ServeClient, ServerThread

EPSILON = 1
SCALE = 1 / 256


def main() -> None:
    generator = VKGenerator(seed=7)
    store = CommunityStore()
    couples = []
    for spec in PAPER_COUPLES[:2]:
        community_b, community_a = build_couple(spec, generator, scale=SCALE)
        store.register_community(community_b)
        store.register_community(community_a)
        couples.append((community_b, community_a))

    with ServerThread(store=store) as st:
        host, port = st.address
        print(f"service up on {host}:{port} with {len(store)} communities\n")
        with ServeClient(host, port) as client:
            b, a = couples[0]

            served = client.join(b.name, a.name, epsilon=EPSILON)
            with BatchEngine([b, a]) as engine:
                direct = engine.run(
                    [PairJob.build(0, 1, "ex-minmax", EPSILON)]
                )[0].result

            print(f"served:  {b.name!r} vs {a.name!r} -> "
                  f"{100 * served['result']['similarity']:.2f}% "
                  f"({served['disposition']})")
            print(f"direct:  BatchEngine          -> "
                  f"{100 * direct.similarity:.2f}%")
            assert served["result"]["similarity"] == direct.similarity
            assert served["result"]["pairs"] == [
                list(pair) for pair in direct.to_dict()["pairs"]
            ]
            print("parity:  served matching is identical to the direct one\n")

            again = client.join(b.name, a.name, epsilon=EPSILON)
            print(f"repeat:  disposition={again['disposition']!r} "
                  "(shared join-result cache)\n")

            profile = [1] * b.n_dims
            for _ in range(3):
                mutated = client.subscribe(b.name, profile)
            print(f"mutate:  3 subscriptions -> {b.name!r} at "
                  f"version {mutated['version']}, "
                  f"{mutated['n_users']} users")
            fresh = client.join(b.name, a.name, epsilon=EPSILON)
            print(f"rejoin:  sees version {fresh['first']['version']}, "
                  f"disposition={fresh['disposition']!r} "
                  "(fingerprint change invalidates the cache)\n")

            stats = client.stats()
            print("stats:")
            print(json.dumps(
                {
                    "admission": stats["admission"],
                    "requests_by_op": stats["requests_by_op"],
                    "cache": stats["cache"],
                },
                indent=2,
            ))


if __name__ == "__main__":
    main()
