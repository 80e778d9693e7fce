package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/fleet"
	"repro/internal/silicon"
)

// tinyConfig shrinks every workload so a run takes about a second.
// Its paper inputs (the reference and silicon 1) are pinned; its other
// inputs are not, so those runs must report correct=false.
func tinyConfig() config {
	return config{
		workers:         1,
		paperSilicons:   1,
		intake:          dcShape{racks: 1, chassis: 1, chips: 4},
		backlog:         dcShape{racks: 1, chassis: 2, chips: 2, tenants: 40, ticks: 40, opsProfile: "ops-storm"},
		lifetimeServers: 2,
		lifetimeYears:   1,
		placerNodes:     4,
		sampleNodes:     2,
	}
}

var workloadNames = []string{"paper", "dc-intake", "dc-backlog", "lifetime"}

func TestSeedInputsDeterministic(t *testing.T) {
	cfg := defaultConfig()
	if got := []int{poolIndex(1), poolIndex(2), poolIndex(16), poolIndex(17), poolIndex(0)}; !reflect.DeepEqual(got, []int{0, 1, 15, 0, 15}) {
		t.Fatalf("pool indices %v", got)
	}
	orders := map[string]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		got := paperSilicons(cfg, seed)
		if again := paperSilicons(cfg, seed); !reflect.DeepEqual(got, again) {
			t.Fatalf("seed %d paper silicons %v then %v", seed, got, again)
		}
		orders[fmt.Sprint(got)] = true
		sorted := append([]uint64(nil), got...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(sorted, want) {
			t.Fatalf("seed %d paper silicons %v, want an order of %v", seed, got, want)
		}
	}
	if len(orders) < 2 {
		t.Fatal("seeds 1-10 all make the same paper order")
	}
	for _, mk := range []func(config, int) dc.Options{intakeOptions, backlogOptions} {
		seen := map[string]bool{}
		for k := 0; k < poolSize; k++ {
			a, b := dc.Campaign(mk(cfg, k)).Hash(), dc.Campaign(mk(cfg, k)).Hash()
			if a != b {
				t.Fatalf("pool %d: campaign hash %s then %s", k, a, b)
			}
			if seen[a] {
				t.Fatalf("pool %d repeats an earlier input", k)
			}
			seen[a] = true
		}
	}
	if o := intakeOptions(cfg, 0); o.SiliconStart != 1 || o.Seed != 1 {
		t.Fatalf("seed 1 dc-intake starts at silicon %d, seed %d", o.SiliconStart, o.Seed)
	}
	campaigns := map[string]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		c := lifetimeCampaign(cfg, seed)
		if again := lifetimeCampaign(cfg, seed); c.Hash() != again.Hash() {
			t.Fatalf("seed %d: lifetime campaign hash %s then %s", seed, c.Hash(), again.Hash())
		}
		campaigns[c.Hash()] = true
		var servers []uint64
		for _, j := range c.Jobs {
			servers = append(servers, j.SiliconSeed)
		}
		sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
		if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(servers, want) {
			t.Fatalf("seed %d ages servers %v, want an order of %v", seed, servers, want)
		}
	}
	if len(campaigns) < 2 {
		t.Fatal("seeds 1-10 all make the same lifetime campaign")
	}
}

// TestEverySeedIsPinned checks that every input any seed can select
// has a pinned output.
func TestEverySeedIsPinned(t *testing.T) {
	cfg := defaultConfig()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range paperSilicons(cfg, 1) {
		for _, id := range artifactIDs {
			if _, ok := p.Paper[paperKey(s, id)]; !ok {
				t.Errorf("no pin for %s", paperKey(s, id))
			}
		}
	}
	for _, j := range lifetimeCampaign(cfg, 1).Jobs {
		if _, ok := p.Lifetime[lifetimeKey(j.SiliconSeed)]; !ok {
			t.Errorf("no pin for lifetime %s", lifetimeKey(j.SiliconSeed))
		}
	}
	for k := 0; k < poolSize; k++ {
		if _, ok := p.DCIntake[dcKey(intakeOptions(cfg, k))]; !ok {
			t.Errorf("no pin for dc-intake %s", dcKey(intakeOptions(cfg, k)))
		}
		if _, ok := p.DCBacklog[dcKey(backlogOptions(cfg, k))]; !ok {
			t.Errorf("no pin for dc-backlog %s", dcKey(backlogOptions(cfg, k)))
		}
	}
}

// TestPinsReproduce recomputes pinned outputs of every workload,
// including the recorded defects: fig5 fails on generated silicon 1
// and 7, and lifetime servers 2 and 4 end UNSAFE with the sentinel on.
func TestPinsReproduce(t *testing.T) {
	cfg := defaultConfig()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	fig5 := map[uint64]string{
		1: "silicon: CPM delay reduction 10 exceeds preset 9 on P0C4",
		7: "silicon: CPM delay reduction 9 exceeds preset 8 on P0C0",
	}
	for _, sil := range []uint64{0, 1, 7} {
		prof := silicon.Reference()
		if sil != 0 {
			if prof, err = silicon.Generate(sil, silicon.GenerateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := core.NewSuite(core.SuiteOptions{Profile: prof, FleetWorkers: cfg.workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range artifactIDs {
			text, err := renderArtifact(s, id)
			if id == "fig5" && fig5[sil] != "" && (err == nil || err.Error() != fig5[sil]) {
				t.Errorf("silicon %d fig5: err %v, want the recorded defect %q", sil, err, fig5[sil])
			}
			if m := p.Paper.check(paperKey(sil, id), text, err); m != "" {
				t.Error(m)
			}
		}
		if sil == 0 {
			if m := checkTableI(s); m != "" {
				t.Error(m)
			}
		}
	}

	fres, err := fleet.Run(fleet.LifetimeSweep(4, 1, cfg.lifetimeYears, false), fleet.Options{Workers: cfg.workers})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range fres.Results {
		seed := uint64(i + 1)
		if m := p.Lifetime.check(lifetimeKey(seed), r.Payload, nil); m != "" {
			t.Error(m)
		}
		lr, err := r.Lifetime()
		if err != nil {
			t.Fatal(err)
		}
		if unsafe := seed == 2 || seed == 4; lr.Lifetime.Safe == unsafe {
			t.Errorf("lifetime server %d: safe=%v, recorded unsafe=%v", seed, lr.Lifetime.Safe, unsafe)
		}
	}

	for _, c := range []struct {
		o   dc.Options
		set pinSet
	}{{intakeOptions(cfg, 0), p.DCIntake}, {backlogOptions(cfg, 0), p.DCBacklog}} {
		out, _, _, err := runDC(nil, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if m := c.set.check(dcKey(c.o), out, nil); m != "" {
			t.Error(m)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames requires the printed metrics to be exactly the declared
// ones, with the declared units and well-formed names.
func checkNames(t *testing.T, got map[string]metric, declared []specMetric) {
	t.Helper()
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("printed metric %q is not declared in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %q printed in %q, declared in %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("declared metric %q was not printed", name)
		}
	}
}

// TestRunsPrintDeclaredMetrics runs every workload untraced and traced
// on the tiny configuration: the printed metric names must be exactly
// the declared ones, only pinned inputs may read as correct, and the
// traced runs together must emit spans for every layer.
func TestRunsPrintDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	layerSeen := map[string]bool{}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := runOptions{workload: name, seed: 1, measure: time.Millisecond, traced: traced, scratch: t.TempDir(), cfg: tinyConfig()}
			var log bytes.Buffer
			res, err := run(o, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, log.String())
			}
			if pinned := name == "paper"; res.correct != pinned {
				t.Errorf("%s: correct=%v, inputs pinned=%v\n%s", name, res.correct, pinned, log.String())
			}
			if res.attempted < 1 {
				t.Errorf("%s: attempted %d", name, res.attempted)
			}
			if _, err := res.line(); err != nil {
				t.Fatal(err)
			}
			if !traced {
				checkNames(t, res.metrics, spec.EndToEnd)
				continue
			}
			checkNames(t, res.metrics, spec.PerLayer)
			for i, s := range res.spans.spans {
				layerSeen[s.layer] = true
				if s.parent >= i || s.end < s.start {
					t.Errorf("%s: span %d (%s) has parent %d, interval %v..%v", name, i, s.name, s.parent, s.start, s.end)
				}
			}
			var chrome bytes.Buffer
			if err := res.spans.writeChrome(&chrome); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
				t.Fatalf("%s: trace is not JSON: %v", name, err)
			}
			if len(doc.TraceEvents) <= len(res.spans.spans) {
				t.Errorf("%s: %d trace events for %d spans", name, len(doc.TraceEvents), len(res.spans.spans))
			}
			if !strings.Contains(log.String(), "layer self time") {
				t.Errorf("%s: traced run printed no self-time table", name)
			}
		}
	}
	var missing []string
	for _, l := range layers {
		if !layerSeen[l] {
			missing = append(missing, l)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("no spans for layers %v", missing)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{layer: "bench", name: "root", start: 0, end: 100, parent: -1},
		{layer: "dc", name: "dc.Run", start: 10, end: 60, parent: 0},
		{layer: "fleet", name: "fleet.Run", start: 20, end: 40, parent: 1},
	}}
	self := tr.selfTimes()
	if self["dc"] != 30 || self["fleet"] != 20 || len(self) != len(layers) {
		t.Fatalf("self times %v", self)
	}
}
