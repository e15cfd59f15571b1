package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"bcc/internal/cluster"
	"bcc/internal/coding"
	"bcc/internal/core"
	"bcc/internal/optimize"
	"bcc/internal/rngutil"
	"bcc/internal/service"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the metrics and workloads
// the program emits.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names, listed []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range trainWorkloads {
		if !w.unlisted {
			listed = append(listed, w.name)
		}
	}
	listed = append(listed, "service-stream")
	if got, want := strings.Join(names, ","), strings.Join(listed, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestSmokeEveryMetric runs every workload once at a tiny size, untraced
// and traced, and checks that the result line is correct and carries every
// named metric with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 3, seconds: 1, trace: traced, smoke: true}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			r, ok := runWorkload(ctx, name, o)
			cancel()
			if !ok {
				t.Fatalf("unknown workload %s", name)
			}
			var out bytes.Buffer
			if err := emit(&out, name, o, r, 0, 0); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// bareDecoder and barePlan implement only the required methods, so their
// wrappers must expose no optional capability either.
type bareDecoder struct{ coding.Decoder }
type barePlan struct{ coding.Plan }

func (p barePlan) NewDecoder() coding.Decoder { return bareDecoder{p.Plan.NewDecoder()} }

type bareOpt struct{ optimize.Optimizer }

type updaterOnly struct{ optimize.SliceUpdater }

func TestWrappersKeepCapabilities(t *testing.T) {
	tr := newTracer(12, time.Now())
	var plans []coding.Plan
	for _, name := range coding.Names() {
		sch, err := coding.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sch.Plan(12, 12, 3, rngutil.New(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans = append(plans, p)
	}
	bcc, _ := coding.Lookup("bcc")
	p, _ := bcc.Plan(12, 12, 3, rngutil.New(1))
	plans = append(plans, barePlan{p})
	seen := map[string]bool{}
	for _, p := range plans {
		wp := wrapPlan(p, tr)
		if err := sameCapabilities(p, wp); err != nil {
			t.Errorf("plan %s: %v", p.Scheme(), err)
		}
		d := p.NewDecoder()
		if err := sameCapabilities(d, wp.NewDecoder()); err != nil {
			t.Errorf("decoder of %s: %v", p.Scheme(), err)
		}
		if rt, ok := p.(coding.Retunable); ok {
			want, err := rt.AtLevel(rt.MinLevel())
			if err != nil {
				t.Fatal(err)
			}
			got, err := wp.(coding.Retunable).AtLevel(rt.MinLevel())
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCapabilities(want, got); err != nil {
				t.Errorf("%s level plan: %v", p.Scheme(), err)
			}
		}
		for _, c := range append(capabilities(p), capabilities(d)...) {
			seen[c] = true
		}
	}
	opts := []optimize.Optimizer{
		optimize.NewNesterov(make([]float64, 4), optimize.Constant(0.5)),
		optimize.NewGD(make([]float64, 4), optimize.Constant(0.5)),
		bareOpt{optimize.NewGD(make([]float64, 4), optimize.Constant(0.5))},
	}
	var first int64
	for _, o := range opts {
		for _, t2 := range []*tracer{nil, tr} {
			w := wrapOpt(o, t2, &first, time.Now())
			if err := sameCapabilities(o, w); err != nil {
				t.Errorf("optimizer %T: %v", o, err)
			}
		}
		for _, c := range capabilities(o) {
			seen[c] = true
		}
	}
	// A combination no wrapper variant covers must be refused, not hidden.
	u := updaterOnly{optimize.NewGD(make([]float64, 4), optimize.Constant(0.5))}
	if err := sameCapabilities(u, wrapOpt(u, tr, &first, time.Now())); err == nil {
		t.Error("a SliceUpdater without Snapshotter was wrapped without complaint")
	}
	// The registry must exercise every plan, decoder and optimizer
	// capability the wrappers forward, or this test proves less than it says.
	for _, c := range []string{"Retunable", "MinResponders", "SliceDecoder", "ParallelDecoder", "SliceUpdater", "Snapshotter"} {
		if !seen[c] {
			t.Errorf("no tested value implements %s", c)
		}
	}
}

// TestGatesRejectCorruptOutput feeds each correctness gate a deliberately
// corrupted output.
func TestGatesRejectCorruptOutput(t *testing.T) {
	for _, w := range trainWorkloads {
		spec, err := w.spec(7, true)
		if err != nil {
			t.Fatal(err)
		}
		spec.GradNormTol = w.gradTol
		job, err := core.NewJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.run(context.Background(), job.EngineConfig(), job.Spec.TimeScale)
		if err != nil {
			t.Fatal(err)
		}
		jr := &jobRun{res: res}
		if err := w.check(jr, job, w.lossTarget(true)); err != nil {
			t.Fatalf("%s: the uncorrupted output fails its gate: %v", w.name, err)
		}
		zeroed := *res
		zeroed.FinalW = make([]float64, len(res.FinalW))
		if err := w.check(&jobRun{res: &zeroed}, job, w.lossTarget(true)); err == nil || !strings.Contains(err.Error(), "loss") {
			t.Errorf("%s: zeroed FinalW passed the loss gate (%v)", w.name, err)
		}
		nudged := *res
		nudged.FinalW = append([]float64(nil), res.FinalW...)
		nudged.FinalW[0] *= 1 + 1e-6
		if err := w.check(&jobRun{res: &nudged}, job, w.lossTarget(true)); err == nil || !strings.Contains(err.Error(), "reference") {
			t.Errorf("%s: perturbed FinalW passed the reference gate (%v)", w.name, err)
		}
		stopped := *res
		stopped.Iters = res.Iters[:1]
		if err := w.check(&jobRun{res: &stopped}, job, w.lossTarget(true)); w.gradTol > 0 && err == nil {
			t.Errorf("%s: a run stopped before its target passed the gate", w.name)
		}
	}

	done := service.JobStatus{State: core.JobDone}
	full := &cluster.Result{Iters: make([]cluster.IterStats, 5)}
	if err := checkServiceJob(done, full, 5); err != nil {
		t.Fatalf("a complete service job fails its gate: %v", err)
	}
	for name, c := range map[string]struct {
		st  service.JobStatus
		res *cluster.Result
	}{
		"failed":    {service.JobStatus{State: core.JobFailed, Err: "boom"}, full},
		"degraded":  {service.JobStatus{State: core.JobDegraded}, full},
		"no result": {done, nil},
		"truncated": {done, &cluster.Result{Iters: make([]cluster.IterStats, 4)}},
	} {
		if err := checkServiceJob(c.st, c.res, 5); err == nil {
			t.Errorf("service gate accepted a %s job", name)
		}
	}
}
