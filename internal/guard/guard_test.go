package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestInactiveGuardChecksNothing(t *testing.T) {
	g := New(nil, Budget{}, 10)
	if g.Active() {
		t.Fatal("zero budget with nil ctx should be inactive")
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Budget{}, 0)
	if !g.Active() {
		t.Fatal("cancellable ctx should arm the guard")
	}
	if err := g.Check(3, func() int { return 7 }, 2); err != nil {
		t.Fatalf("premature abort: %v", err)
	}
	cancel()
	g.SetStratum(1)
	err := g.Check(3, func() int { return 7 }, 2)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CanceledError, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if ce.Stratum != 1 || ce.Round != 3 || ce.Facts != 7 || ce.Invented != 2 {
		t.Fatalf("bad attribution: %+v", ce)
	}
}

func TestBudgetAxes(t *testing.T) {
	cases := []struct {
		name     string
		budget   Budget
		facts    int
		invented int
		axis     Axis
	}{
		{"facts", Budget{MaxFacts: 5}, 16, 0, AxisFacts}, // baseline 10 → 6 derived
		{"oids", Budget{MaxOIDs: 3}, 10, 4, AxisOIDs},
		{"deadline", Budget{Timeout: time.Nanosecond}, 10, 0, AxisDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(nil, tc.budget, 10)
			if tc.axis == AxisDeadline {
				time.Sleep(time.Millisecond)
			}
			err := g.Check(2, func() int { return tc.facts }, tc.invented)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("want *BudgetError, got %v", err)
			}
			if be.Axis != tc.axis {
				t.Fatalf("axis = %s, want %s", be.Axis, tc.axis)
			}
			if be.Round != 2 {
				t.Fatalf("round = %d", be.Round)
			}
		})
	}
}

func TestBudgetWithinBounds(t *testing.T) {
	g := New(nil, Budget{MaxFacts: 10, MaxOIDs: 10, Timeout: time.Hour}, 0)
	if err := g.Check(0, func() int { return 10 }, 10); err != nil {
		t.Fatalf("bounds are inclusive: %v", err)
	}
}

func TestRoundsExceeded(t *testing.T) {
	g := New(nil, Budget{}, 4)
	g.SetStratum(2)
	be := g.RoundsExceeded(50, 50, 10, 1, "does not guarantee termination")
	if be.Axis != AxisRounds || be.Stratum != 2 || be.Round != 50 || be.Facts != 6 || be.Invented != 1 {
		t.Fatalf("bad attribution: %+v", be)
	}
	for _, want := range []string{"no fixpoint within 50 rounds", "stratum 2", "does not guarantee termination"} {
		if !strings.Contains(be.Error(), want) {
			t.Fatalf("Error() = %q missing %q", be.Error(), want)
		}
	}
}

func TestPanicError(t *testing.T) {
	pe := &PanicError{Value: "boom", Context: "rule r"}
	if !strings.Contains(pe.Error(), "boom") || !strings.Contains(pe.Error(), "rule r") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}
