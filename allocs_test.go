package logres

import (
	"runtime"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocsToolchain is the toolchain the allocation pin below was measured
// with; another toolchain allocates differently, so the pin skips there.
const allocsToolchain = "go1.24"

// One enrol/drop commit of BenchmarkRegistrarEnrolDrop (registrar_http's
// preload, ExecConcurrent) allocates at most maxAllocs. Publishing the new
// E seals the written predicate's view and builds its component buckets
// only when something probes them; building every bucket at publish cost
// about 3 400 allocations per commit.
func TestRegistrarEnrolDropAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not compared under -race")
	}
	if v := runtime.Version(); v != allocsToolchain && !strings.HasPrefix(v, allocsToolchain+".") {
		t.Skipf("allocation counts are pinned for %s, not compared under %s", allocsToolchain, v)
	}
	const maxAllocs = 1000
	db := registrarPreload(t, 1)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		registrarEnrolDrop(t, db, i)
		i++
	})
	if allocs > maxAllocs {
		t.Fatalf("%.0f allocations per enrol/drop commit, want at most %d", allocs, maxAllocs)
	}
	t.Logf("%.0f allocations per enrol/drop commit (at most %d)", allocs, maxAllocs)
}
