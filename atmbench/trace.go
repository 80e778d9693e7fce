package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// layers are the repository modules the benchmark attributes time to,
// in the order the self-time table prints them. Every span the
// benchmark records around a call into the program names one of them;
// "bench" marks the benchmark's own grouping spans.
var layers = []string{
	"core", "charact", "tuning", "manage", "chip", "platform",
	"fleet", "dc", "guard", "lifetime", "sentinel", "fsp",
}

// span is one recorded interval: a call the benchmark made into a
// layer (or a benchmark grouping span), with its parent span.
type span struct {
	layer, name string
	start, end  time.Duration // since the tracer's origin
	parent      int           // index into tracer.spans, -1 for roots
}

// tracer records spans in memory; they are written out once the run
// ends. A nil *tracer records nothing and reads no clock, so untraced
// passes run the same code with tr == nil.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// do runs f inside a span named layer.name.
func (t *tracer) do(layer, name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{layer: layer, name: name, parent: parent, start: time.Since(t.origin)})
	t.stack = append(t.stack, id)
	err := f()
	t.spans[id].end = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// durations lists the durations of the spans with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part covered by their child spans. Every layer in
// layers is present, zero when the run made no call into it.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration, len(layers))
	for _, l := range layers {
		self[l] = 0
	}
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if _, ok := self[s.layer]; ok {
			self[s.layer] += s.end - s.start - childTime[i]
		}
	}
	return self
}

// writeChrome writes the spans in the repository's Chrome trace_event
// format (internal/obs), one track per workload, each event carrying
// its layer, parent span and workload.
func (t *tracer) writeChrome(w io.Writer) error {
	tr := obs.NewTracer()
	for i, s := range t.spans {
		parent := "none"
		if s.parent >= 0 {
			parent = strconv.Itoa(s.parent)
		}
		tr.Complete(s.layer, s.name, t.workload,
			s.start.Microseconds(), (s.end - s.start).Microseconds(),
			"id", strconv.Itoa(i), "parent", parent, "workload", t.workload)
	}
	return tr.WriteJSON(w)
}

// printSelfTimes writes the per-layer self-time table to log.
func printSelfTimes(log io.Writer, t *tracer) {
	self := t.selfTimes()
	var b strings.Builder
	fmt.Fprintf(&b, "atmbench: layer self time (%s, traced passes + probes)\n", t.workload)
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-9s %10.2f ms\n", l, self[l].Seconds()*1e3)
	}
	fmt.Fprint(log, b.String())
}

// layerMetrics collects the per-layer metrics of a traced run. Every
// name in perLayerUnits is exported; a metric the workload does not
// exercise reads 0.
type layerMetrics map[string]float64

// export turns the collected values into printed metrics, one per
// declared per-layer name.
func (m layerMetrics) export() map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{m[name], unit}
	}
	return out
}

// perLayerUnits declares every per-layer metric with its unit.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"chip.solve_us":                   "us",
		"chip.trial_ns":                   "ns",
		"chip.trials":                     "count",
		"charact.characterize_ms":         "ms",
		"core.artifacts":                  "count",
		"core.artifact_p50_ms":            "ms",
		"core.artifact_p95_ms":            "ms",
		"tuning.deploy_ms":                "ms",
		"manage.calibrate_ms":             "ms",
		"manage.calibrate_calls":          "count",
		"platform.build_ms":               "ms",
		"platform.provision_ms":           "ms",
		"platform.provision_self_ms":      "ms",
		"fleet.jobs":                      "count",
		"fleet.run_s":                     "s",
		"fleet.job_p50_ms":                "ms",
		"fleet.job_p95_ms":                "ms",
		"fleet.overhead_frac":             "1",
		"dc.intake_s":                     "s",
		"dc.sim_s":                        "s",
		"dc.tick_us":                      "us",
		"dc.place_saturated_ns":           "ns",
		"dc.place_free_ns":                "ns",
		"dc.place_attempts":               "count",
		"dc.place_hit_ratio":              "1",
		"dc.budget_step_ns":               "ns",
		"dc.ops_draw_us":                  "us",
		"dc.placed":                       "count",
		"dc.deferrals":                    "count",
		"dc.completed":                    "count",
		"dc.unplaced":                     "count",
		"dc.migrations":                   "count",
		"dc.shed":                         "count",
		"dc.violations":                   "count",
		"guard.allow_ns":                  "ns",
		"guard.breaker_rejected":          "count",
		"fsp.commands":                    "count",
		"fsp.exec_us":                     "us",
		"sentinel.alarms":                 "count",
		"sentinel.actions":                "count",
		"sentinel.observe_ns":             "ns",
		"lifetime.epochs":                 "count",
		"lifetime.unsafe_servers":         "count",
		"dc.place_share_of_sim":           "1",
		"platform.deploy_calibrate_share": "1",
		"fsp.share_of_jobs":               "1",
		"guard.allow_share_of_sim":        "1",
		"trace.overhead_frac":             "1",
		"trace.spans":                     "count",
	}
	for _, id := range artifactIDs {
		u["core."+id+"_ms"] = "ms"
	}
	for _, l := range layers {
		u[l+".self_ms"] = "ms"
	}
	return u
}()

// mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timeLoop calls f with increasing indices inside one span until at
// least d has elapsed (and at least once), and returns the mean time
// per call.
func timeLoop(tr *tracer, layer, name string, d time.Duration, f func(i int) error) (time.Duration, error) {
	n := 0
	var elapsed time.Duration
	err := tr.do(layer, name, func() error {
		t0 := time.Now()
		for n == 0 || time.Since(t0) < d {
			// Check the clock every 64 calls so nanosecond-scale calls
			// are not dominated by clock reads.
			for j := 0; j < 64; j++ {
				if err := f(n); err != nil {
					return err
				}
				n++
			}
		}
		elapsed = time.Since(t0)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return elapsed / time.Duration(n), nil
}
