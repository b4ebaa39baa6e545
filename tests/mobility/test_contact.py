"""Unit tests for contacts and contact traces."""

import pytest

from repro.errors import ConfigurationError
from repro.mobility.contact import Contact, ContactTrace


class TestContact:
    def test_end_is_start_plus_length(self):
        contact = Contact(10.0, 2.5)
        assert contact.end == pytest.approx(12.5)

    @pytest.mark.parametrize(
        "start, length",
        [(float("nan"), 1.0), (0.0, float("nan")), (float("inf"), 1.0), (0.0, float("inf"))],
    )
    def test_non_finite_values_rejected(self, start, length):
        with pytest.raises(ConfigurationError, match="finite"):
            Contact(start, length)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            Contact(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            Contact(0.0, 0.0)

    def test_overlap_detection(self):
        assert Contact(0.0, 2.0).overlaps(Contact(1.0, 2.0))
        assert not Contact(0.0, 1.0).overlaps(Contact(1.0, 1.0))

    def test_shifted_moves_start_only(self):
        moved = Contact(5.0, 2.0, "m-1").shifted(10.0)
        assert moved.start == 15.0
        assert moved.length == 2.0
        assert moved.mobile_id == "m-1"


def simple_trace():
    return ContactTrace(
        [Contact(10.0, 2.0), Contact(100.0, 3.0), Contact(50.0, 1.0)]
    )


class TestContactTrace:
    def test_constructor_sorts_contacts(self):
        trace = simple_trace()
        assert [c.start for c in trace] == [10.0, 50.0, 100.0]

    def test_len_iter_getitem(self):
        trace = simple_trace()
        assert len(trace) == 3
        assert trace[1].start == 50.0
        assert sum(1 for _ in trace) == 3

    def test_append_enforces_order(self):
        trace = simple_trace()
        with pytest.raises(ConfigurationError):
            trace.append(Contact(5.0, 1.0))
        trace.append(Contact(200.0, 1.0))
        assert len(trace) == 4

    def test_total_capacity(self):
        assert simple_trace().total_capacity == pytest.approx(6.0)

    def test_duration_is_last_end(self):
        assert simple_trace().duration == pytest.approx(103.0)

    def test_duration_empty_trace(self):
        assert ContactTrace().duration == 0.0

    def test_between_filters_by_start(self):
        window = simple_trace().between(10.0, 100.0)
        assert [c.start for c in window] == [10.0, 50.0]

    def test_capacity_between(self):
        assert simple_trace().capacity_between(0.0, 60.0) == pytest.approx(3.0)

    def test_has_overlaps_false_for_sparse(self):
        assert not simple_trace().has_overlaps()

    def test_has_overlaps_true_when_contacts_intersect(self):
        trace = ContactTrace([Contact(0.0, 5.0), Contact(2.0, 1.0)])
        assert trace.has_overlaps()

    def test_inter_contact_times(self):
        gaps = simple_trace().inter_contact_times()
        assert gaps == [pytest.approx(40.0), pytest.approx(50.0)]

    def test_mean_contact_length(self):
        assert simple_trace().mean_contact_length() == pytest.approx(2.0)
        assert ContactTrace().mean_contact_length() is None

    def test_merged_combines_and_sorts(self):
        a = ContactTrace([Contact(0.0, 1.0)])
        b = ContactTrace([Contact(10.0, 1.0)])
        merged = ContactTrace.merged([b, a])
        assert [c.start for c in merged] == [0.0, 10.0]


class TestEpochViews:
    def test_epochs_split_and_rebase(self):
        trace = ContactTrace([Contact(10.0, 1.0), Contact(90000.0, 1.0)])
        days = trace.epochs(86400.0)
        assert len(days) == 2
        assert days[1][0].start == pytest.approx(90000.0 - 86400.0)

    def test_epochs_invalid_length(self):
        with pytest.raises(ConfigurationError):
            ContactTrace().epochs(0.0)

    def test_slot_capacities_fold_across_epochs(self):
        contacts = [Contact(3600.0 * 7 + 10, 2.0), Contact(86400.0 + 3600.0 * 7 + 20, 2.0)]
        trace = ContactTrace(contacts)
        capacities = trace.slot_capacities(86400.0, 24)
        assert capacities[7] == pytest.approx(4.0)
        assert sum(capacities) == pytest.approx(4.0)

    def test_slot_capacities_validation(self):
        with pytest.raises(ConfigurationError):
            ContactTrace().slot_capacities(86400.0, 0)
