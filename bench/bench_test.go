package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload for about a second in both modes with the
// output checks on, so the harness cannot rot unnoticed. Under the race
// detector the two big-model workloads are left out: its instrumentation
// makes their float loops ~100x slower (one large-asp step takes 0.4 s).
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		if raceDetector && wl.Keys*wl.KeySize > 1<<12 {
			t.Logf("%s: skipped under -race", wl.Name)
			continue
		}
		for trace := 0; trace <= 1; trace++ {
			raw, out, err := runOne(io.Discard, wl, 1, 1, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v",
					wl.Name, trace, out.Correct, out.Attempted, out.Failed, raw.Problems)
			}
			for _, d := range metricDefs {
				v, ok := out.Metrics[d.Name]
				if want := d.E2E == (trace == 0); ok != want {
					t.Errorf("%s trace=%d: metric %s reported=%v, want %v", wl.Name, trace, d.Name, ok, want)
				}
				if ok && d.E2E && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, d.Name, v.Value)
				}
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for us := int64(1); us <= 1000; us++ {
		h.add(us * 1000)
	}
	for _, c := range []struct{ q, wantUs float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}} {
		if got := h.quantile(c.q) / 1e3; math.Abs(got-c.wantUs) > 0.04*c.wantUs {
			t.Errorf("quantile(%v) = %.1f us, want %.0f within 4%%", c.q, got, c.wantUs)
		}
	}
	for _, ns := range []int64{0, 1, 31, 32, 33, 1 << 20, 1<<62 + 12345} {
		lo, w := bucketRange(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= lo+w {
			t.Errorf("%d ns landed in bucket [%v, %v)", ns, lo, lo+w)
		}
	}
}

// TestSliceMedianThroughput: one slice that ran 4x faster must not move
// the reported rate.
func TestSliceMedianThroughput(t *testing.T) {
	res := &runResult{}
	for s, steps := range []int64{100, 110, 90, 95, 105, 400} {
		res.Slices[s] = sliceResult{Seconds: 1, Steps: steps, StepNs: 1e9, SyncNs: 5e8}
	}
	m := windowMetrics(workloads[0], res)
	if got := m["steps_per_s"].Value; got != 102.5 {
		t.Errorf("steps_per_s = %v, want the median slice 102.5", got)
	}
	if got := m["steps_per_s"].N; got != 900 {
		t.Errorf("steps_per_s n = %d, want 900", got)
	}
	if got := m["sync_wait_share"].Value; got != 0.5 {
		t.Errorf("sync_wait_share = %v, want 0.5", got)
	}
	if v := m["ro_pulls_per_s"]; v.Value != 0 || v.Slices != nil {
		t.Errorf("ro_pulls_per_s on a workload without readers = %+v, want zero", v)
	}
}

// TestSelfTime: nested probes subtract (tcp − frame, frame − codec) and a
// probe faster than what it nests does not go negative.
func TestSelfTime(t *testing.T) {
	if got := selfNs(257.5, 97.8); math.Abs(got-159.7) > 1e-9 {
		t.Errorf("selfNs = %v, want 159.7", got)
	}
	if got := selfNs(97.8, 2*12.0, 2*31.1); math.Abs(got-11.6) > 1e-9 {
		t.Errorf("selfNs = %v, want 11.6", got)
	}
	if got := selfNs(10, 8, 5); got != 0 {
		t.Errorf("selfNs below zero = %v, want 0", got)
	}
}

func TestIQRIsPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := iqr(xs); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	if got := iqr([]float64{1, 2, 4, 8, 16, 32}); got != 18.25 {
		t.Errorf("iqr = %v, want 18.25", got)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(v float64) value { return value{Value: v, Slices: []float64{v, v, v, v, v, v}} }
	if got := judge(rate, steady(1000), steady(950)); got != unchanged {
		t.Errorf("-5%% on a 10%% bound: %s", got)
	}
	if got := judge(rate, steady(1000), steady(880)); got != regressed {
		t.Errorf("-12%% on a 10%% bound: %s", got)
	}
	if got := judge(rate, steady(1000), steady(1500)); got != unchanged {
		t.Errorf("an improvement: %s", got)
	}
	noisy := value{Value: 1000, Slices: []float64{700, 800, 1000, 1000, 1200, 1300}}
	if got := judge(rate, noisy, steady(880)); got != unresolved {
		t.Errorf("slices spread wider than the bound: %s", got)
	}
	guard := metricDef{Name: "guard", Better: "lower", Bound: 0.10, TwoSided: true}
	if got := judge(guard, steady(100), steady(80)); got != regressed {
		t.Errorf("a guard that fell by 20%%: %s", got)
	}
	acc := metricDef{Name: "acc", Better: "higher", Bound: 0.02, Abs: true}
	if got := judge(acc, value{Value: 0.75}, value{Value: 0.74}); got != unchanged {
		t.Errorf("accuracy -0.01 on an absolute 0.02 bound: %s", got)
	}
	setup, _ := findMetric("setup_s")
	if got := judge(setup, value{Value: 0.1}, value{Value: 0.14}); got != unchanged {
		t.Errorf("set-up +0.04 s is under the 0.05 s floor: %s", got)
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables in this
// package.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %+v, defined %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	listed := append(append([]metric(nil), doc.EndToEnd...), doc.PerLayer...)
	if len(listed) != len(metricDefs) {
		t.Fatalf("%d metrics listed, %d defined", len(listed), len(metricDefs))
	}
	for i, m := range listed {
		d, ok := findMetric(m.Name)
		if !ok {
			t.Errorf("%s is listed but not defined", m.Name)
			continue
		}
		e2e := i < len(doc.EndToEnd)
		if d.E2E != e2e || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("%s: listed %+v (end_to_end=%v), defined %+v", m.Name, m, e2e, d)
		}
		if e2e && m.Bound == nil {
			t.Errorf("%s: an end-to-end metric needs a bound", m.Name)
		} else if e2e && (*m.Bound != d.Bound || d.Abs) {
			t.Errorf("%s: listed bound %v, defined %v (abs=%v)", m.Name, *m.Bound, d.Bound, d.Abs)
		}
		if !e2e && m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}
