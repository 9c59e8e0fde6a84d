// Fixture twin of the real NIC source: an initiator bumping the target NIC's
// owner-only counters instead of its own per-initiator slot, so the
// foreign-nic-state rule has something to flag. Never compiled; consumed only
// by the photon_lint self-test.
void seeded_foreign_write(Nic& target, unsigned long len) {
  target.counters_.bump(target.counters_.bytes_in, len);  // not via from(rank_)
}
