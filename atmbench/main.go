// Command atmbench is the repository's end-to-end benchmark. It runs
// one named workload against the simulator's public layer APIs, checks
// every output against pinned digests and invariants, and prints one
// JSON result line:
//
//	atmbench --workload paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics (set-up CPU
// time, median pass CPU time, throughput per CPU-second, peak RSS). With --trace 1 the run
// repeats the workload with spans recorded around every call the
// benchmark makes into a layer, runs the per-layer probes, writes the
// spans as a Chrome trace_event file and prints the per-layer metrics.
// See README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper, dc-intake, dc-backlog or lifetime")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed makes the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured region")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for temporary caches and trace files")
		pinOut  = flag.String("write-pins", "", "regenerate the pinned output digests into this file and exit")
	)
	flag.Parse()
	if *pinOut != "" {
		if err := writePins(*pinOut, defaultConfig()); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	opt := runOptions{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		scratch:  *scratch,
		cfg:      defaultConfig(),
	}
	res, err := run(opt, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if opt.traced {
		path := filepath.Join(*scratch, "atmbench-"+*name+".trace.json")
		if err := writeFile(path, res.spans.writeChrome); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "atmbench: %d spans written to %s\n", len(res.spans.spans), path)
	}
	line, err := res.line()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atmbench:", err)
	os.Exit(1)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOptions is one invocation of the benchmark.
type runOptions struct {
	workload string
	seed     uint64
	measure  time.Duration
	traced   bool
	scratch  string
	cfg      config
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports: the pass outcomes, the metrics of the
// run's mode, and (traced runs) the recorded spans.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	spans     *tracer
}

// line renders the result as the final stdout line.
func (r *result) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
}

// passStats is the outcome of one timed repetition of a workload.
type passStats struct {
	// items is the work the pass completed, in the workload's
	// throughput unit.
	items float64
	// ops and failed count the checked operations of the pass; a
	// failed op returned an error, panicked, or mismatched its pin.
	ops, failed int
	// mismatches describes every output that disagreed with its pin
	// or broke an invariant. A known, pinned defect is a failed op but
	// not a mismatch.
	mismatches []string
	// took is the time the pass spent in calls into the program,
	// excluding the benchmark's own output checks.
	took elapsed
}

// merge folds in a repetition of the same ops: the op count stays one
// pass's, the failure count is the larger of the two, and the
// repetition's mismatches are kept.
func (p *passStats) merge(o passStats) {
	p.ops = max(p.ops, o.ops)
	p.failed = max(p.failed, o.failed)
	p.mismatches = append(p.mismatches, o.mismatches...)
}

// workload is one named benchmark input set. setup builds the inputs
// and fixtures (it is called several times and must be repeatable);
// pass runs one checked repetition, recording spans into tr when tr is
// non-nil; probe (traced runs only) measures the per-layer metrics the
// passes cannot see from outside.
type workload interface {
	setup() error
	pass(tr *tracer) (passStats, error)
	probe(tr *tracer, m layerMetrics) error
	close() error
}

// Set-up runs at least setupMinRepeats times and then again while the
// set-ups so far took under setupBudget, at most setupMaxRepeats times;
// setup_s is the median. A cheap set-up is repeated more, so its median
// is as steady as an expensive one's.
const (
	setupMinRepeats = 9
	setupMaxRepeats = 31
	setupBudget     = 3 * time.Second
)

func newWorkload(o runOptions) (workload, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	k := poolIndex(o.seed)
	switch o.workload {
	case "paper":
		return newPaper(o.cfg, o.seed, pins), nil
	case "dc-intake":
		return newDC(o.cfg, intakeOptions(o.cfg, k), pins, o.scratch, false)
	case "dc-backlog":
		return newDC(o.cfg, backlogOptions(o.cfg, k), pins, o.scratch, true)
	case "lifetime":
		return newLifetime(o.cfg, o.seed, pins), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, dc-intake, dc-backlog or lifetime)", o.workload)
}

// run executes one benchmark invocation. Diagnostics go to log; the
// caller prints the result line.
func run(o runOptions, log io.Writer) (res *result, err error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var setups []float64
	setupStart := time.Now()
	for len(setups) < setupMinRepeats || (len(setups) < setupMaxRepeats && time.Since(setupStart) < setupBudget) {
		start := now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, start.since().cpu.Seconds())
	}

	// The measured region opens with a warm-up pass, checked like every
	// other but not timed: it pays for first-touch page faults and cold
	// caches.
	start := time.Now()
	total, err := w.pass(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res = &result{metrics: map[string]metric{}}
	budget := o.measure - time.Since(start)
	if o.traced {
		// Half the rest untraced, half traced: the difference of the
		// two medians is the tracing overhead.
		budget /= 2
	}
	untraced, err := passes(w, nil, budget, &total)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "atmbench: %s seed %d: set-ups %.3f CPU s, untraced passes %.3f CPU s, %.3f wall s, pass peak RSS %.1f MB\n",
		o.workload, o.seed, setups, untraced.cpus, untraced.walls, untraced.peaks)
	if !o.traced {
		res.metrics["setup_s"] = metric{median(setups), "s"}
		res.metrics["cpu_s"] = metric{median(untraced.cpus), "s"}
		res.metrics["work_per_cpu_s"] = metric{median(untraced.rates), "1/s"}
		res.metrics["peak_rss_mb"] = metric{median(untraced.peaks), "MB"}
	} else {
		tr := newTracer(o.workload)
		lm := layerMetrics{}
		traced, err := passes(w, tr, budget, &total)
		if err != nil {
			return nil, err
		}
		if err := w.probe(tr, lm); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		lm["trace.overhead_frac"] = median(traced.cpus)/median(untraced.cpus) - 1
		lm["trace.spans"] = float64(len(tr.spans))
		for layer, d := range tr.selfTimes() {
			lm[layer+".self_ms"] = d.Seconds() * 1e3
		}
		res.metrics = lm.export()
		res.spans = tr
		printSelfTimes(log, tr)
	}
	res.attempted = total.ops
	res.failed = total.failed
	res.correct = len(total.mismatches) == 0
	for _, m := range total.mismatches {
		fmt.Fprintln(log, "atmbench: MISMATCH:", m)
	}
	fmt.Fprintf(log, "atmbench: %s seed %d: fail_frac %d/%d, correct %v\n",
		o.workload, o.seed, total.failed, total.ops, res.correct)
	return res, nil
}

// series holds one value per pass: the wall and CPU seconds it took,
// its throughput (work items per CPU-second) and its peak RSS in MiB.
type series struct {
	walls, cpus, rates, peaks []float64
}

// passes repeats the workload until the budget is spent (at least one
// pass; another starts only if the last one's length still fits).
// Every pass repeats the same ops, so total keeps one pass's op count;
// its failure count is the most any pass had, and every pass's
// mismatches are kept.
func passes(w workload, tr *tracer, budget time.Duration, total *passStats) (series, error) {
	var out series
	start := time.Now()
	for {
		// Each pass starts from the live heap alone, so its peak does
		// not depend on how much freed memory the runtime had kept.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return out, err
		}
		t0 := time.Now()
		ps, err := w.pass(tr)
		d := time.Since(t0)
		if err != nil {
			return out, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return out, err
		}
		total.merge(ps)
		out.walls = append(out.walls, ps.took.wall.Seconds())
		out.cpus = append(out.cpus, ps.took.cpu.Seconds())
		out.rates = append(out.rates, ps.items/ps.took.cpu.Seconds())
		out.peaks = append(out.peaks, peak)
		if time.Since(start)+d > budget {
			return out, nil
		}
	}
}

// elapsed is how long a stretch of the benchmark took: wall time, and
// the process's CPU time (user + system, all threads). The metrics use
// CPU time: on a shared virtual machine the hypervisor can stop the
// VM's CPUs for seconds at a time, which wall time counts and CPU time
// (the guest's steal accounting) does not. The workloads run one worker,
// so without steal the two agree within a few percent.
type elapsed struct {
	wall, cpu time.Duration
}

// stamp is a point in wall and process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), processCPU()} }

func (s stamp) since() elapsed {
	return elapsed{time.Since(s.wall), processCPU() - s.cpu}
}

// processCPU is the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a non-empty slice (the slice is not modified).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// resetPeakRSS restarts the process's resident-set high-water mark
// (Linux: writing 5 to /proc/self/clear_refs), so each pass's peak is
// its own. The peak over the whole process would grow with the number
// of passes, which grows with the host's speed.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// guarded runs f, converting a panic into an error so a crashing op
// counts as failed instead of ending the run.
func guarded(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}
