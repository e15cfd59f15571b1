package experiments

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

func quickOpt() Options { return Options{Quick: true, Seed: 7} }

func mustRun(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(context.Background(), id, quickOpt(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return tab
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, id := range Names() {
		id := id
		t.Run(id, func(t *testing.T) {
			mustRun(t, id)
		})
	}
}

func TestFig2Ordering(t *testing.T) {
	tab := mustRun(t, "fig2")
	// For every r: lower bound <= BCC <= randomized (cols 1,2,4); BCC
	// measured within 25% of analytic (cols 2,3).
	for i := range tab.Rows {
		lb := cellFloat(t, tab, i, 1)
		bcc := cellFloat(t, tab, i, 2)
		meas := cellFloat(t, tab, i, 3)
		rnd := cellFloat(t, tab, i, 4)
		if lb > bcc+1e-9 || bcc > rnd+1e-9 {
			t.Fatalf("row %d: ordering violated lb=%v bcc=%v rnd=%v", i, lb, bcc, rnd)
		}
		if math.Abs(meas-bcc)/bcc > 0.25 {
			t.Fatalf("row %d: measured %v far from analytic %v", i, meas, bcc)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := mustRun(t, "fig4")
	// Quick mode: one scenario, rows uncoded/cyclicrep/bcc. Totals must
	// order bcc < cyclicrep < uncoded.
	totals := map[string]float64{}
	for i, row := range tab.Rows {
		totals[row[1]] = cellFloat(t, tab, i, 4)
	}
	if !(totals["bcc"] < totals["cyclicrep"] && totals["cyclicrep"] < totals["uncoded"]) {
		t.Fatalf("totals out of order: %v", totals)
	}
}

func TestTable1Breakdown(t *testing.T) {
	tab := mustRun(t, "table1")
	for i, row := range tab.Rows {
		comm := cellFloat(t, tab, i, 2)
		comp := cellFloat(t, tab, i, 3)
		total := cellFloat(t, tab, i, 4)
		if math.Abs(comm+comp-total) > 0.01*total {
			t.Fatalf("%s: comm+comp != total (%v + %v vs %v)", row[0], comm, comp, total)
		}
		if comm <= comp {
			t.Fatalf("%s: communication should dominate computation (%v vs %v)", row[0], comm, comp)
		}
	}
}

func TestFig5Reduction(t *testing.T) {
	tab := mustRun(t, "fig5")
	lb := cellFloat(t, tab, 0, 1)
	bcc := cellFloat(t, tab, 1, 1)
	if bcc >= lb {
		t.Fatalf("generalized BCC %v not faster than LB %v", bcc, lb)
	}
}

func TestTheorem1RelativeError(t *testing.T) {
	tab := mustRun(t, "theorem1")
	for i := range tab.Rows {
		analytic := cellFloat(t, tab, i, 2)
		measured := cellFloat(t, tab, i, 3)
		if math.Abs(measured-analytic)/analytic > 0.25 {
			t.Fatalf("row %d: measured %v vs analytic %v", i, measured, analytic)
		}
	}
}

func TestTheorem2BoundsOrdered(t *testing.T) {
	tab := mustRun(t, "theorem2")
	lower := cellFloat(t, tab, 1, 1)
	upper := cellFloat(t, tab, 2, 1)
	if lower >= upper {
		t.Fatalf("lower %v >= upper %v", lower, upper)
	}
}

func TestCommLoadBestOfBoth(t *testing.T) {
	tab := mustRun(t, "commload")
	for i := range tab.Rows {
		bccM := cellFloat(t, tab, i, 2)
		rndM := cellFloat(t, tab, i, 4)
		if bccM > rndM+1e-9 {
			t.Fatalf("row %d: BCC load %v exceeds randomized %v", i, bccM, rndM)
		}
	}
}

func TestTailBoundHolds(t *testing.T) {
	tab := mustRun(t, "tailbound")
	for i := range tab.Rows {
		emp := cellFloat(t, tab, i, 2)
		bound := cellFloat(t, tab, i, 3)
		if emp > bound+0.02 {
			t.Fatalf("row %d: empirical %v above bound %v", i, emp, bound)
		}
	}
}

func TestFractionalBetweenCRAndBCC(t *testing.T) {
	tab := mustRun(t, "fractional")
	for i := range tab.Rows {
		cr := cellFloat(t, tab, i, 1)
		fr := cellFloat(t, tab, i, 3)
		if fr > cr+1e-6 {
			t.Fatalf("row %d: FR measured %v worse than CR worst case %v", i, fr, cr)
		}
	}
}

func TestMultiBatchAblation(t *testing.T) {
	tab := mustRun(t, "multibatch")
	// Communication grows with K; the threshold must not improve.
	prevComm := 0.0
	baseK := cellFloat(t, tab, 0, 4)
	for i := range tab.Rows {
		comm := cellFloat(t, tab, i, 5)
		if comm <= prevComm {
			t.Fatalf("row %d: comm %v did not grow", i, comm)
		}
		prevComm = comm
		if k := cellFloat(t, tab, i, 4); k < 0.9*baseK {
			t.Fatalf("row %d: threshold %v improved over K=1's %v", i, k, baseK)
		}
	}
}

func TestApproxTradeoff(t *testing.T) {
	tab := mustRun(t, "approx")
	// Threshold must increase with phi; every loss must be below ln 2
	// (training made progress even with partial gradients).
	prev := 0.0
	for i := range tab.Rows {
		k := cellFloat(t, tab, i, 2)
		if k < prev {
			t.Fatalf("row %d: measured K %v decreased", i, k)
		}
		prev = k
		if loss := cellFloat(t, tab, i, 3); loss >= math.Ln2 {
			t.Fatalf("row %d: final loss %v shows no training progress", i, loss)
		}
	}
}

func TestSkewInflation(t *testing.T) {
	tab := mustRun(t, "skew")
	// The analytic column is exact and must strictly inflate with s; the
	// measured column tracks it within MC noise. Endpoints must show clear
	// inflation.
	prevAnalytic := 0.0
	for i := range tab.Rows {
		analytic := cellFloat(t, tab, i, 1)
		if analytic <= prevAnalytic {
			t.Fatalf("row %d: analytic threshold %v not inflating", i, analytic)
		}
		prevAnalytic = analytic
		measured := cellFloat(t, tab, i, 2)
		if math.Abs(measured-analytic)/analytic > 0.3 {
			t.Fatalf("row %d: measured %v far from weighted-collector analytic %v", i, measured, analytic)
		}
	}
	first := cellFloat(t, tab, 0, 2)
	last := cellFloat(t, tab, len(tab.Rows)-1, 2)
	if last <= first {
		t.Fatalf("most-skewed threshold %v not above uniform %v", last, first)
	}
}

func TestHeteroTrainSpeedup(t *testing.T) {
	tab := mustRun(t, "heterotrain")
	lbWall := cellFloat(t, tab, 0, 1)
	gWall := cellFloat(t, tab, 1, 1)
	if gWall >= lbWall {
		t.Fatalf("generalized BCC wall %v not below LB %v", gWall, lbWall)
	}
	// Exact gradients on both sides: final losses must agree closely.
	lbLoss := cellFloat(t, tab, 0, 3)
	gLoss := cellFloat(t, tab, 1, 3)
	if math.Abs(lbLoss-gLoss) > 1e-6+0.01*math.Abs(lbLoss) {
		t.Fatalf("losses diverged: LB %v vs gBCC %v", lbLoss, gLoss)
	}
}

func TestConvergenceOrdering(t *testing.T) {
	tab := mustRun(t, "convergence")
	// Rows: uncoded, cyclicrep, bcc; time-to-target must strictly improve.
	unc := cellFloat(t, tab, 0, 3)
	cr := cellFloat(t, tab, 1, 3)
	bccT := cellFloat(t, tab, 2, 3)
	if !(bccT < cr && cr < unc) {
		t.Fatalf("time-to-target out of order: uncoded %v, cr %v, bcc %v", unc, cr, bccT)
	}
	// Same iterations-to-target across exact schemes.
	if tab.Rows[0][2] != tab.Rows[2][2] {
		t.Fatalf("iterations-to-target differ: %v vs %v", tab.Rows[0][2], tab.Rows[2][2])
	}
}

func TestScalingSpeedupPersists(t *testing.T) {
	tab := mustRun(t, "scaling")
	for i := range tab.Rows {
		bccT := cellFloat(t, tab, i, 2)
		uncT := cellFloat(t, tab, i, 4)
		if bccT >= uncT {
			t.Fatalf("row %d: BCC %v not faster than uncoded %v", i, bccT, uncT)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "nope", quickOpt(), nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := mustRun(t, "tailbound")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "tailbound") || !strings.Contains(out, "note:") {
		t.Fatalf("render output missing pieces:\n%s", out)
	}
	buf.Reset()
	tab.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tab.Rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(tab.Rows))
	}
	if !strings.HasPrefix(lines[0], "eps,") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

func TestCSVEscaping(t *testing.T) {
	tab := &Table{ID: "x", Columns: []string{"a"}, Rows: [][]string{{`say "hi", ok`}}}
	var buf bytes.Buffer
	tab.CSV(&buf)
	if !strings.Contains(buf.String(), `"say ""hi"", ok"`) {
		t.Fatalf("CSV escaping wrong: %q", buf.String())
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d of %d experiments", len(names), len(registry))
	}
	seen := map[string]bool{}
	for _, id := range names {
		if seen[id] {
			t.Fatalf("experiment id %q registered twice", id)
		}
		seen[id] = true
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	tables, err := RunAll(context.Background(), quickOpt(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(registry) {
		t.Fatalf("RunAll produced %d tables", len(tables))
	}
	if buf.Len() == 0 {
		t.Fatal("RunAll rendered nothing")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2.0:    "2",
		0.125:  "0.125",
		10.100: "10.1",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
