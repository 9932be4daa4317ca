package bench

import (
	"strings"
	"testing"
)

// gateFixture builds a matching baseline/current pair: one hotpath table
// with a join cell and a calibration cell.
func gateFixture(baseSec, baseCal, baseAllocs, curSec, curCal, curAllocs float64) ([]TableJSON, *Table) {
	baseline := []TableJSON{{
		ID: "hotpath-gate",
		Rows: []RowJSON{{
			Label: "dense",
			Cells: []CellJSON{
				{Method: string(MTermJoin), Seconds: baseSec, AllocsPerOp: baseAllocs},
				{Method: string(MCalibrate), Seconds: baseCal},
			},
		}},
	}}
	current := &Table{
		ID:      "hotpath-gate",
		Columns: []Method{MTermJoin, MCalibrate},
		Rows: []Row{{
			Label: "dense",
			Cells: []Cell{
				{Method: MTermJoin, M: Measurement{Seconds: curSec, AllocsPerOp: curAllocs}},
				{Method: MCalibrate, M: Measurement{Seconds: curCal}},
			},
		}},
	}
	return baseline, current
}

func gateFailures(t *testing.T, baseline []TableJSON, current *Table) []GateResult {
	t.Helper()
	results, err := GateCompare(baseline, current)
	if err != nil {
		t.Fatal(err)
	}
	var failed []GateResult
	for _, r := range results {
		if r.Failed {
			failed = append(failed, r)
		}
	}
	return failed
}

func TestGatePassesWithinTolerance(t *testing.T) {
	baseline, current := gateFixture(0.100, 0.010, 50, 0.105, 0.010, 50)
	if failed := gateFailures(t, baseline, current); len(failed) != 0 {
		t.Errorf("5%% drift should pass, failed: %+v", failed)
	}
}

func TestGateFailsOnTimeRegression(t *testing.T) {
	baseline, current := gateFixture(0.100, 0.010, 50, 0.125, 0.010, 50)
	failed := gateFailures(t, baseline, current)
	if len(failed) != 1 || !strings.Contains(failed[0].Reason, "time regressed") {
		t.Errorf("25%% regression should fail on time, got %+v", failed)
	}
}

// TestGateNormalizesByCalibration is the cross-machine case: everything —
// method and calibration loop alike — is 3x slower, which must read as
// "same machine-relative cost", not a regression.
func TestGateNormalizesByCalibration(t *testing.T) {
	baseline, current := gateFixture(0.100, 0.010, 50, 0.300, 0.030, 50)
	if failed := gateFailures(t, baseline, current); len(failed) != 0 {
		t.Errorf("uniformly slower machine should pass after normalization, failed: %+v", failed)
	}
}

func TestGateFailsOnAllocRegression(t *testing.T) {
	// Time unchanged; allocs/op balloons well past 10% + the slack.
	baseline, current := gateFixture(0.100, 0.010, 200, 0.100, 0.010, 400)
	failed := gateFailures(t, baseline, current)
	if len(failed) != 1 || !strings.Contains(failed[0].Reason, "allocs/op regressed") {
		t.Errorf("doubled allocs/op should fail, got %+v", failed)
	}
}

func TestGateSkipsCellsWithoutBaseline(t *testing.T) {
	baseline, current := gateFixture(0.100, 0.010, 50, 0.100, 0.010, 50)
	current.Rows[0].Cells = append(current.Rows[0].Cells, Cell{
		Method: MPhraseFinder, M: Measurement{Seconds: 0.5},
	})
	results, err := GateCompare(baseline, current)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Method == string(MPhraseFinder) {
			if r.Failed || !strings.Contains(r.Reason, "no baseline") {
				t.Errorf("new workload without history must be skipped, got %+v", r)
			}
			return
		}
	}
	t.Error("PhraseFinder cell missing from gate results")
}

func TestGateMissingTableErrors(t *testing.T) {
	_, current := gateFixture(0.1, 0.01, 1, 0.1, 0.01, 1)
	if _, err := GateCompare(nil, current); err == nil {
		t.Error("missing baseline table should error")
	}
}

// TestHotpathTableEndToEnd runs the full rig on a miniature tier: the
// streamed corpus builds, every method measures without error, and the
// per-op measurements carry allocation data.
func TestHotpathTableEndToEnd(t *testing.T) {
	tab, err := HotpathTable(HotpathTierSpec{Name: "test", Docs: 400}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "hotpath-test" || len(tab.Rows) == 0 {
		t.Fatalf("table = %+v", tab)
	}
	for _, row := range tab.Rows {
		for _, c := range row.Cells {
			if c.Err != nil {
				t.Fatalf("row %s method %s: %v", row.Label, c.Method, c.Err)
			}
			if c.M.Seconds <= 0 {
				t.Errorf("row %s method %s: non-positive seconds", row.Label, c.Method)
			}
			if c.Method != MCalibrate && c.M.Results <= 0 {
				t.Errorf("row %s method %s: no results", row.Label, c.Method)
			}
		}
	}
}

// TestNoiseFloor pins the excuse rule: a time failure inside
// tolerance+measured-spread is excused, one beyond it is not, and
// allocation failures never are.
func TestNoiseFloor(t *testing.T) {
	mk := func(ratio float64, timeFailed, allocFailed bool) GateResult {
		return GateResult{
			Table: "hotpath-gate", Row: "dense", Method: "TermJoin",
			Ratio: ratio, TimeFailed: timeFailed, AllocFailed: allocFailed,
			Failed: timeFailed || allocFailed, Reason: "time regressed",
		}
	}
	order := []string{"k"}

	// 14% over baseline with 30% attempt spread: unfalsifiable, excused.
	best := map[string]GateResult{"k": mk(1.14, true, false)}
	applyNoiseFloor(best, map[string][]float64{"k": {1.14, 1.30, 1.48}}, order)
	if best["k"].Failed {
		t.Errorf("14%% regression under 30%% spread should be excused, got %+v", best["k"])
	}

	// 40% over baseline with a tight 2% spread: a real regression.
	best = map[string]GateResult{"k": mk(1.40, true, false)}
	applyNoiseFloor(best, map[string][]float64{"k": {1.40, 1.42, 1.43}}, order)
	if !best["k"].Failed {
		t.Error("40% regression under 2% spread must stay failed")
	}

	// Allocation failures are deterministic; spread never excuses them.
	best = map[string]GateResult{"k": mk(1.05, false, true)}
	applyNoiseFloor(best, map[string][]float64{"k": {1.05, 1.60}}, order)
	if !best["k"].Failed {
		t.Error("alloc regression must never be excused by time spread")
	}

	// A single attempt has no spread to measure; nothing is excused.
	best = map[string]GateResult{"k": mk(1.14, true, false)}
	applyNoiseFloor(best, map[string][]float64{"k": {1.14}}, order)
	if !best["k"].Failed {
		t.Error("one attempt gives no noise estimate; failure must stand")
	}
}

// TestNoiseFloorGlobalDrift pins the epoch-drift credit: when the whole
// pack of cells drifted together while the calibration cells moved, the
// gate reads it as environmental; one cell regressing against a steady
// pack still fails, a pack drifting on an unmoved calibration fails, and
// the credit is capped.
func TestNoiseFloorGlobalDrift(t *testing.T) {
	calMove := 1.5
	pack := func(packRatio, failRatio float64) (map[string]GateResult, map[string][]float64, []string) {
		best := map[string]GateResult{}
		ratios := map[string][]float64{}
		var order []string
		for i, key := range []string{"a", "b", "c", "d", "e"} {
			r := GateResult{Table: "t", Row: "r", Method: key, Ratio: packRatio, CalRatio: calMove}
			if i == 0 {
				r.Ratio = failRatio
				r.TimeFailed = true
				r.Failed = true
				r.Reason = "time regressed"
			}
			best[key] = r
			ratios[key] = []float64{r.Ratio, r.Ratio * 1.02}
			order = append(order, key)
		}
		return best, ratios, order
	}

	// Whole pack at 1.3, "failing" cell at 1.35: epoch drift, excused.
	best, ratios, order := pack(1.30, 1.35)
	applyNoiseFloor(best, ratios, order)
	if best["a"].Failed {
		t.Errorf("cell at x1.35 amid pack at x1.30 is drift, got %+v", best["a"])
	}

	// Pack steady at 1.0, one cell at 1.40 with tight spread: regression.
	best, ratios, order = pack(1.00, 1.40)
	applyNoiseFloor(best, ratios, order)
	if !best["a"].Failed {
		t.Error("cell at x1.40 against a steady pack must stay failed")
	}

	// Drift credit is capped: pack at 2.2 cannot excuse a cell at 2.4.
	best, ratios, order = pack(2.20, 2.40)
	applyNoiseFloor(best, ratios, order)
	if !best["a"].Failed {
		t.Error("drift credit beyond the cap must not excuse a 2.4x cell")
	}

	// The credit is bounded by how far the calibration moved: a 5% move
	// cannot excuse a pack drift of 30%.
	calMove = 1.05
	best, ratios, order = pack(1.30, 1.35)
	applyNoiseFloor(best, ratios, order)
	if !best["a"].Failed {
		t.Error("a 5% calibration move must not credit a 30% pack drift")
	}
}

// TestGateFailsOnUniformSlowdown plants the regression a drift credit
// could hide: every method 1.4x slower, attempt after attempt, on a
// machine whose calibration loop did not move. The gate must fail every
// cell; allocs/op stay unchanged, so time alone decides.
func TestGateFailsOnUniformSlowdown(t *testing.T) {
	methods := []Method{MTermJoin, MPhraseFinder, MComp1, MGenMeet}
	baseline := []TableJSON{{ID: "hotpath-gate", Rows: []RowJSON{{Label: "dense"}}}}
	for _, m := range methods {
		baseline[0].Rows[0].Cells = append(baseline[0].Rows[0].Cells, CellJSON{Method: string(m), Seconds: 0.100, AllocsPerOp: 50})
	}
	baseline[0].Rows[0].Cells = append(baseline[0].Rows[0].Cells, CellJSON{Method: string(MCalibrate), Seconds: 0.010})
	var attempts [][]GateResult
	for a, jitter := range []float64{1.00, 1.01, 0.99} {
		current := &Table{ID: "hotpath-gate", Rows: []Row{{Label: "dense"}}}
		for _, m := range methods {
			current.Rows[0].Cells = append(current.Rows[0].Cells, Cell{Method: m, M: Measurement{Seconds: 0.140 * jitter, AllocsPerOp: 50}})
		}
		current.Rows[0].Cells = append(current.Rows[0].Cells, Cell{Method: MCalibrate, M: Measurement{Seconds: 0.010}})
		results, err := GateCompare(baseline, current)
		if err != nil {
			t.Fatalf("attempt %d: %v", a, err)
		}
		attempts = append(attempts, results)
	}
	verdicts, drift := judge(attempts)
	if drift != 0 {
		t.Errorf("drift credit %.2f with an unmoved calibration, want 0", drift)
	}
	if len(verdicts) != len(methods) {
		t.Fatalf("%d verdicts, want %d", len(verdicts), len(methods))
	}
	for _, v := range verdicts {
		if !v.Failed || !v.TimeFailed {
			t.Errorf("%s: uniform 1.4x slowdown passed the gate: %+v", v.Method, v)
		}
	}
}
