// Commit log for optimistic concurrent module application: a monotonic
// epoch counter plus a bounded ring of committed write footprints. A
// concurrent application snapshots the epoch with the state, evaluates
// outside the lock, and validates its footprint against every entry
// committed since its snapshot (backward optimistic concurrency
// control): a collision between its reads-or-writes and a committed
// write set forces a retry from a fresh snapshot.
//
// The ring is bounded so a long-lived database cannot accumulate
// unbounded validation history; a validator whose snapshot predates the
// retained window is conservatively treated as conflicting (it cannot
// prove disjointness against writes it can no longer see).
package storage

import "logres/internal/guard"

// DefaultCommitLogWindow is the number of committed write footprints the
// log retains for validation. Snapshots older than the window force a
// conservative conflict; with short optimistic critical sections the
// window only needs to cover the commits that can land during one
// apply, so a few hundred entries is generous.
const DefaultCommitLogWindow = 512

// CommitLog is not safe for concurrent use. Its every caller holds the
// database's writers' lock (db.mu) or is the database's sole owner (Open,
// Load, recovery, AsOf): Validate and Record run inside the commit
// critical section, and Epoch under the lock too. Readers and attempts
// never call it: each published snapshot carries the epoch it was
// recorded at.
type CommitLog struct {
	epoch   uint64            // epoch of the newest committed entry
	base    uint64            // epoch of the oldest retained entry
	entries []guard.Footprint // entries[i] committed at epoch base+uint64(i)
	window  int
}

// NewCommitLog returns a log retaining at most window entries
// (DefaultCommitLogWindow when window <= 0).
func NewCommitLog(window int) *CommitLog {
	return NewCommitLogAt(0, window)
}

// NewCommitLogAt returns an empty log whose next recorded commit gets
// epoch+1 — the recovery path uses it so a restarted database continues
// the epoch sequence its WAL left off at. The validation history starts
// empty: no optimistic snapshot can predate the restart, so there is
// nothing to validate against.
func NewCommitLogAt(epoch uint64, window int) *CommitLog {
	if window <= 0 {
		window = DefaultCommitLogWindow
	}
	return &CommitLog{epoch: epoch, base: epoch + 1, window: window}
}

// Epoch returns the epoch of the newest committed write. A snapshot
// taken now has seen every write up to and including this epoch.
func (l *CommitLog) Epoch() uint64 {
	return l.epoch
}

// Record appends one committed write footprint and returns its epoch.
// The oldest entry is evicted once the window is full.
func (l *CommitLog) Record(fp guard.Footprint) uint64 {
	l.epoch++
	l.entries = append(l.entries, fp)
	if len(l.entries) > l.window {
		drop := len(l.entries) - l.window
		l.entries = append(l.entries[:0], l.entries[drop:]...)
		l.base += uint64(drop)
	}
	return l.epoch
}

// Validate checks fp against every footprint committed after the
// snapshot epoch since. It returns the first conflicting predicate and
// the committed footprint it collided with, or ok=true when fp is
// disjoint from all of them. A since older than the retained window is
// a conservative conflict ("$pruned$").
func (l *CommitLog) Validate(since uint64, fp guard.Footprint) (pred string, theirs guard.Footprint, ok bool) {
	if since >= l.epoch {
		return "", guard.Footprint{}, true
	}
	if since+1 < l.base {
		// History pruned: writes committed in (since, base) are gone.
		return "$pruned$", guard.Footprint{Universal: true}, false
	}
	for e := since + 1; e <= l.epoch; e++ {
		committed := l.entries[e-l.base]
		if p, hit := fp.Overlaps(committed); hit {
			return p, committed, false
		}
	}
	return "", guard.Footprint{}, true
}

// Window returns the retention bound (for introspection and tests).
func (l *CommitLog) Window() int { return l.window }
