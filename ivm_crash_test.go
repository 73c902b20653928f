package logres

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"logres/internal/hooks"
	"logres/internal/storage"
)

// Crash-matrix coverage for incremental maintenance state: the
// maintainer is derived state, rebuilt by recomputation at recovery, so
// killing a durable incremental database at any storage syscall
// boundary and reopening it must leave (1) the recovered Save bytes
// equal to a plain (non-incremental) recovery of the same directory,
// (2) the maintained instance byte-identical to a cold from-scratch
// recomputation of the recovered state, and (3) propagation working for
// commits applied after recovery.

const ivmCrashSchema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`

const ivmCrashRules = `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`

// runIVMCrashWorkload seeds a durable incremental database and commits
// a short insert/delete workload; any step may be aborted by an
// injected storage fault (the simulated kill).
func runIVMCrashWorkload(t *testing.T, dir string) {
	t.Helper()
	db, _, err := OpenDurable(ivmCrashSchema, Durability{Dir: dir}, WithIncremental(true))
	if err != nil {
		return // killed during creation
	}
	defer db.Close()
	if _, err := db.Exec(ivmCrashRules); err != nil {
		return
	}
	for i := 0; i < 4; i++ {
		src := fmt.Sprintf("mode ridv.\nrules\n  edge(src: %d, dst: %d).\nend.\n", i, i+1)
		if _, err := db.Exec(src); err != nil {
			return
		}
	}
	if _, err := db.Exec("mode rddv.\nrules\n  edge(src: 1, dst: 2).\nend.\n"); err != nil {
		return
	}
}

func TestIncrementalCrashMatrix(t *testing.T) {
	// Pass 1: census of fault-point crossings on a clean run.
	var mu sync.Mutex
	crossings := 0
	hooks.StorageFault = func(string) error {
		mu.Lock()
		crossings++
		mu.Unlock()
		return nil
	}
	runIVMCrashWorkload(t, t.TempDir())
	hooks.StorageFault = nil
	if crossings == 0 {
		t.Fatal("workload crossed no fault points")
	}

	// Pass 2: kill at every crossing and recover with incremental
	// maintenance enabled.
	for k := 0; k < crossings; k++ {
		k := k
		dir := t.TempDir()
		n := 0
		var killed string
		hooks.StorageFault = func(point string) error {
			mu.Lock()
			defer mu.Unlock()
			n++
			if n-1 == k {
				killed = point
				return errors.New("injected crash")
			}
			return nil
		}
		runIVMCrashWorkload(t, dir)
		hooks.StorageFault = nil

		if ok, err := storage.Exists(dir); err != nil || !ok {
			continue // killed before the store materialized
		}

		inc, _, err := OpenDurable(ivmCrashSchema, Durability{Dir: dir}, WithIncremental(true))
		if err != nil {
			t.Fatalf("kill@%d(%s): incremental recovery failed: %v", k, killed, err)
		}
		var incSave bytes.Buffer
		if err := inc.Save(&incSave); err != nil {
			t.Fatal(err)
		}
		maintained, err := inc.InstanceString()
		if err != nil {
			t.Fatalf("kill@%d(%s): maintained instance: %v", k, killed, err)
		}

		// Cold recomputation of the recovered persistent state: load the
		// Save bytes into a fresh non-incremental database and derive
		// from scratch on the row oracle (the recovered database runs the
		// defaults).
		cold, err := Load(bytes.NewReader(incSave.Bytes()), rowOracle()...)
		if err != nil {
			t.Fatalf("kill@%d(%s): load recovered snapshot: %v", k, killed, err)
		}
		scratch, err := cold.InstanceString()
		if err != nil {
			t.Fatalf("kill@%d(%s): cold recomputation: %v", k, killed, err)
		}
		if maintained != scratch {
			t.Fatalf("kill@%d(%s): recovered maintenance state diverges from cold recomputation", k, killed)
		}

		// Post-recovery propagation: one more insert and one delete must
		// keep the maintained instance identical to scratch.
		for _, src := range []string{
			"mode ridv.\nrules\n  edge(src: 7, dst: 8).\n  edge(src: 8, dst: 9).\nend.\n",
			"mode rddv.\nrules\n  edge(src: 8, dst: 9).\nend.\n",
		} {
			if _, err := inc.Exec(src); err != nil {
				t.Fatalf("kill@%d(%s): post-recovery commit: %v", k, killed, err)
			}
			if _, err := cold.Exec(src); err != nil {
				t.Fatalf("kill@%d(%s): oracle commit: %v", k, killed, err)
			}
			got, err := inc.InstanceString()
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.InstanceString()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("kill@%d(%s): post-recovery propagation diverges from scratch", k, killed)
			}
		}
		inc.Close()
	}
}
