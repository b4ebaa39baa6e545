"""Quickstart: one declarative study on the paper's scenario.

Builds the roadside scenario from the paper's evaluation (24 h epoch,
rush hours 07-09 and 17-19, contacts every 300 s in rush / 1800 s off-
peak, 2 s contacts) as a single serializable **StudySpec** — the one
description every experiment in this repository runs from — executes it
with ``run_study``, and prints the metrics the paper reports: probed
contact capacity ζ, probing overhead Φ, and per-unit cost ρ.

Everything in the spec is plain data: mechanisms and engines are
registry names (swap ``"fast"`` for ``"micro"`` to re-run the same
study at COOJA fidelity), seeds are explicit, and the spec round-trips
through JSON — ``spec.save("my_study.json")`` then
``repro-snip run --spec my_study.json`` reproduces this script
bit-for-bit from the shell (see ``examples/paper_study.json`` for the
full Fig. 7/8 grid).

A study result holds each cell's scenario and metrics.  To look inside
the scheduler — here, what SNIP-RH learned — build one from the
registry and run the cell in-process: the same scenario and mechanism
give the same run.

Run::

    python examples/quickstart.py
"""

from repro import StudySpec, mechanism_factories, resolve_engine, run_study


def main() -> None:
    spec = StudySpec(
        name="quickstart",
        zeta_targets=(24.0,),        # upload 24 s of contact capacity per day
        phi_maxes=(864.0,),          # energy budget Φmax = Tepoch/100 = 864 s
        epochs=7,                    # one simulated week
        seed=42,
        mechanisms=("SNIP-RH", "SNIP-AT"),
        engines=("fast",),           # or ("micro",) for cycle accuracy
    )
    study = run_study(spec)
    sweep = study.grid().budget(spec.phi_maxes[0])
    rh = sweep.points["SNIP-RH"][0]
    at = sweep.points["SNIP-AT"][0]

    print("SNIP-RH on the paper's roadside scenario, one week")
    print("-" * 52)
    print(f"probed capacity  ζ = {rh.zeta:6.2f} s/epoch "
          f"(target {spec.zeta_targets[0]:.0f})")
    print(f"probing overhead Φ = {rh.phi:6.2f} s/epoch "
          f"(budget {spec.phi_maxes[0]:.0f})")
    print(f"per-unit cost    ρ = {rh.rho:6.2f}")
    result = rh.simulated
    print(f"contacts probed/missed: {result.metrics.total_probed}"
          f"/{result.metrics.total_missed}")
    scheduler = mechanism_factories.resolve("SNIP-RH")(result.scenario)
    resolve_engine(spec.engines[0]).run(result.scenario, scheduler)
    print(f"learned mean contact length: "
          f"{scheduler.contact_length_ewma.value:.2f} s (true 2.0)")
    print(f"learned data threshold:      "
          f"{scheduler.data_threshold():.2f} s")

    # The headline: compare with running SNIP all the time — the same
    # study already swept both mechanisms on identical contact traces.
    print()
    print(f"SNIP-AT needs Φ = {at.phi:.1f} s/epoch for the "
          f"same target — {at.phi / rh.phi:.1f}x "
          "more probing energy than SNIP-RH.")


if __name__ == "__main__":
    main()
