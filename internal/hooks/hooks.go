// Package hooks holds test-only injection points shared across
// packages. Production code paths check these for nil and pay one
// predictable branch; tests in any package of the module (the root
// package's conflict tests, the server's deterministic-409 and
// drain tests) install them to steer otherwise racy interleavings.
package hooks

// ConcurrentPreCommit, when non-nil, runs after the snapshot
// application and before the commit critical section of each optimistic
// attempt (logres.ApplyConcurrentContext) — the injection point
// conflict tests use to commit a competing write in the validation
// window, and drain tests use to hold an apply in flight.
var ConcurrentPreCommit func(attempt int)

// StorageFault, when non-nil, runs immediately before every durability
// syscall boundary in internal/storage — each WAL append, fsync,
// truncation and rotation, and each snapshot write, sync and rename
// (the point names are the obs event kinds plus "snapshot.write",
// "snapshot.rename", "dir.sync", "wal.rotate", "wal.truncate",
// "wal.quarantine"). Returning a non-nil error aborts the operation at
// exactly that boundary, leaving on disk only the syscalls that already
// ran — the crash-matrix tests use this to simulate a SIGKILL between
// any two durability syscalls and then recover the directory fresh. The
// hook may also never return (the re-exec SIGKILL test raises the
// signal inside it).
var StorageFault func(point string) error

// Fault invokes StorageFault when installed; production pays one nil
// check per durability boundary.
func Fault(point string) error {
	if StorageFault != nil {
		return StorageFault(point)
	}
	return nil
}

// IsaFullPass, set by tests, makes every isa pass walk every object of
// its sub class, as if no run's input were closed under the schema's isa
// steps: the reference a Δ-local isa pass must agree with. A run reads
// it once, when it starts.
var IsaFullPass bool

// Compiled, when non-nil, runs at every compilation of a rule set
// (engine.Compile, Program.CompileOver, Program.Extend) with the number
// of rules compiled, the schema's generated isa rules (and, for Extend,
// the rules taken as they are) not counted: tests count how many
// programs an operation compiles, and over how many rules.
var Compiled func(rules int)

// PlanReference, set by tests, makes Compile plan every program as a
// plain stratification does: each level of the dependency graph is one
// stratum, and a one-step stratum runs the step that confirms its
// fixpoint even when its first step provably reached it. The reference
// the split levels and the one-step stops are held to. Compile reads it.
var PlanReference bool
