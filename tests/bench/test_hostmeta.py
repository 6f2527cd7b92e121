"""``peak_rss_bytes``: the high-water mark build workers report."""

from repro.perf.hostmeta import peak_rss_bytes


def test_peak_rss_reported():
    # A high-water mark: positive, in bytes, and monotone (a later
    # reading can only be >= an earlier one).
    first = peak_rss_bytes()
    assert first is not None and first > 0
    # Well above any plausible page size, i.e. actually bytes not KB.
    assert first > 10 * 1024 * 1024
    assert peak_rss_bytes() >= first
