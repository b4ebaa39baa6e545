"""Property-based differential test: SNIP-RH on ``vector`` equals ``fast``.

Generated cells cover what the vector walk skips or shortcuts: budgets
small enough to run out mid-epoch (the walk leaves the epoch there),
quiet active stretches, rush windows across midnight, and contacts that
straddle an epoch boundary, out of a spent stretch or not.  The learned
state is fed one sample per probe (``ewma_weight=1.0`` included, where
the estimate is the last sample), so any missed or extra probe shows in
the per-epoch counts, in the EWMAs' sample counts, or in the learned
contact length.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedulers.rh import SnipRhScheduler
from repro.core.snip_model import SnipModel
from repro.experiments.runner import FastRunner
from repro.experiments.scenario import Scenario
from repro.experiments.vector import VectorEngine
from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.profiles import RushHourSpec
from repro.units import DAY, HOUR

RUSH_WINDOWS = (
    ((0.0, 1.0), (23.0, 24.0)),
    ((7.0, 9.0), (17.0, 19.0)),
    ((22.0, 24.0),),
    ((0.0, 2.0),),
)


@st.composite
def rh_cells(draw):
    windows = draw(st.sampled_from(RUSH_WINDOWS))
    epochs = draw(st.integers(min_value=1, max_value=3))
    scenario = Scenario(
        profile=RushHourSpec(rush_windows=windows, rush_interval=120.0).to_profile(),
        model=SnipModel(t_on=0.02),
        # 0.5-20 s runs out within an hour of activity at d ~ 0.01.
        phi_max=draw(st.sampled_from([0.5, 3.0, 20.0, DAY / 1000.0])),
        zeta_target=float(draw(st.integers(min_value=8, max_value=64))),
        epochs=epochs,
    )
    # Contacts inside each rush window, then one straddler per internal
    # midnight; overlapping ones are dropped (traces never overlap).
    candidates = []
    for epoch in range(epochs):
        for low, high in windows:
            time = epoch * DAY + low * HOUR
            end = epoch * DAY + high * HOUR
            for gap, length in draw(
                st.lists(
                    st.tuples(
                        st.floats(min_value=5.0, max_value=900.0),
                        st.floats(min_value=0.05, max_value=40.0),
                    ),
                    min_size=1,  # fast regenerates an empty trace
                    max_size=25,
                )
            ):
                time += gap
                if time >= end:
                    break
                candidates.append(Contact(time, length))
    for midnight in range(1, epochs):
        before = draw(st.floats(min_value=0.01, max_value=120.0))
        after = draw(st.floats(min_value=0.01, max_value=120.0))
        candidates.append(Contact(midnight * DAY - before, before + after))
    contacts = []
    for contact in sorted(candidates, key=lambda c: c.start):
        if not contacts or contact.start >= contacts[-1].end:
            contacts.append(contact)
    weight = draw(st.sampled_from([1.0, 0.5, 0.125]))
    initial = draw(st.sampled_from([0.5, 2.0, 10.0]))
    return scenario, ContactTrace(contacts), weight, initial


@settings(max_examples=40, deadline=None)
@given(rh_cells())
def test_vector_rh_equals_fast_exactly(cell):
    scenario, trace, weight, initial = cell

    def scheduler():
        return SnipRhScheduler(
            scenario.profile,
            scenario.model,
            initial_contact_length=initial,
            ewma_weight=weight,
        )

    fast_scheduler, vector_scheduler = scheduler(), scheduler()
    fast = FastRunner(scenario, fast_scheduler, trace=trace).run()
    vector = VectorEngine().run(scenario, vector_scheduler, trace=trace)
    assert len(vector.metrics.epochs) == len(fast.metrics.epochs) == scenario.epochs
    for fast_epoch, vector_epoch in zip(fast.metrics.epochs, vector.metrics.epochs):
        assert vector_epoch.zeta == fast_epoch.zeta
        assert vector_epoch.phi == fast_epoch.phi
        assert vector_epoch.probed_contacts == fast_epoch.probed_contacts
        assert vector_epoch.missed_contacts == fast_epoch.missed_contacts
        assert vector_epoch.arrived_contacts == fast_epoch.arrived_contacts
    for name in ("contact_length_ewma", "upload_ewma"):
        fast_ewma = getattr(fast_scheduler, name)
        vector_ewma = getattr(vector_scheduler, name)
        assert vector_ewma.sample_count == fast_ewma.sample_count
        assert vector_ewma.value == fast_ewma.value
