package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/dc"
)

// config sizes the workloads. defaultConfig is what the benchmark
// measures; the benchmark's tests shrink it.
type config struct {
	// workers bounds every worker pool the benchmark asks for. The
	// default is 1: on a 2-CPU machine a second worker shares its core
	// with the Go runtime and anything else running, and the pass times
	// spread several times wider (README.md, Noise).
	workers int
	// paperSilicons is the number of generated servers the paper
	// workload regenerates the artifacts on, after the reference.
	paperSilicons int
	// intake and backlog are the two datacenter shapes.
	intake, backlog dcShape
	// lifetimeServers servers are aged lifetimeYears each.
	lifetimeServers, lifetimeYears int
	// placerNodes is the size of the provisioned placement fixture;
	// sampleNodes is how many node specs the intake split re-builds.
	placerNodes, sampleNodes int
}

// dcShape is a datacenter topology and its operation scenario.
type dcShape struct {
	racks, chassis, chips int
	tenants, ticks        int // 0 = the dc defaults (2 per chip, 32)
	opsProfile            string
}

func defaultConfig() config {
	return config{
		workers:         1,
		paperSilicons:   8,
		intake:          dcShape{racks: 8, chassis: 8, chips: 16},
		backlog:         dcShape{racks: 2, chassis: 4, chips: 8, tenants: 3000, ticks: 2000, opsProfile: "ops-storm"},
		lifetimeServers: 8,
		lifetimeYears:   3,
		placerNodes:     64,
		sampleNodes:     16,
	}
}

// poolSize is the number of distinct input sets per dc workload. A seed
// selects one of them: seed 1 is pool index 0, and seeds wrap modulo
// poolSize, so every seed maps to pinned outputs.
const poolSize = 16

func poolIndex(seed uint64) int { return int((seed + poolSize - 1) % poolSize) }

// intakeOptions is the dc-intake input for pool index k: the intake
// shape with the default tick horizon and tenant count, no faults and
// no cache. The index picks the datacenter's silicon: node silicon
// seeds start after the previous index's last node.
func intakeOptions(cfg config, k int) dc.Options {
	return shapeOptions(cfg, cfg.intake, k)
}

// backlogOptions is the dc-backlog input for pool index k: an
// over-subscribed tenant stream under the ops fault profile, on the
// index's silicon.
func backlogOptions(cfg config, k int) dc.Options {
	return shapeOptions(cfg, cfg.backlog, k)
}

func shapeOptions(cfg config, s dcShape, k int) dc.Options {
	chips := s.racks * s.chassis * s.chips
	o := dc.Options{
		Racks: s.racks, ChassisPerRack: s.chassis, ChipsPerChassis: s.chips,
		Workers: cfg.workers,
		// The tenant stream, trial seeds and ops timeline stay at seed
		// 1: they change the amount of scheduling work by several
		// percent from seed to seed. The silicon moves dc-intake's by
		// under one percent and dc-backlog's by about five.
		Seed:         1,
		SiliconStart: uint64(1 + k*chips),
		Tenants:      s.tenants,
		Ticks:        s.ticks,
	}
	if s.opsProfile != "" {
		o.OpsFaultProfile = s.opsProfile
		o.OpsFaultSeed = 1
	}
	return o
}

func dcKey(o dc.Options) string {
	return fmt.Sprintf("seed=%d,silicon=%d,chips=%d", o.Seed, o.SiliconStart, o.Racks*o.ChassisPerRack*o.ChipsPerChassis)
}

// pinSet maps an input key to the digest of its canonical output, or
// to "err:<digest>" of the error text for a known, recorded defect.
type pinSet map[string]string

// pins holds the pinned digests of every workload's outputs.
type pins struct {
	Paper     pinSet `json:"paper"`
	DCIntake  pinSet `json:"dc-intake"`
	DCBacklog pinSet `json:"dc-backlog"`
	Lifetime  pinSet `json:"lifetime"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// digest is a short content hash of an output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// pinOf is the pin an output (or its error) would get.
func pinOf(out []byte, err error) string {
	if err != nil {
		return "err:" + digest([]byte(err.Error()))
	}
	return digest(out)
}

// check compares an output with its pin and describes any mismatch.
// An op that fails with exactly its pinned error matches.
func (p pinSet) check(key string, out []byte, err error) string {
	want, ok := p[key]
	got := pinOf(out, err)
	switch {
	case !ok:
		return fmt.Sprintf("%s: no pinned output", key)
	case got == want:
		return ""
	case err != nil:
		return fmt.Sprintf("%s: failed: %v", key, err)
	case strings.HasPrefix(want, "err:"):
		return fmt.Sprintf("%s: pinned as a known failure but succeeded (digest %s); re-pin deliberately", key, got)
	}
	return fmt.Sprintf("%s: output digest %s, pinned %s", key, got, want)
}

// writePins regenerates every pin for every pool index and writes the
// file. It refuses to pin a datacenter result that breaks an
// invariant; known defects are pinned by their error text.
func writePins(path string, cfg config) error {
	all := pins{Paper: pinSet{}, DCIntake: pinSet{}, DCBacklog: pinSet{}, Lifetime: pinSet{}}
	if err := pinPaper(cfg, all.Paper); err != nil {
		return err
	}
	if err := pinLifetime(cfg, all.Lifetime); err != nil {
		return err
	}
	for k := 0; k < poolSize; k++ {
		for _, c := range []struct {
			o   dc.Options
			set pinSet
		}{{intakeOptions(cfg, k), all.DCIntake}, {backlogOptions(cfg, k), all.DCBacklog}} {
			out, _, _, err := runDC(nil, c.o)
			if err != nil {
				return fmt.Errorf("%s: %w", dcKey(c.o), err)
			}
			c.set[dcKey(c.o)] = digest(out)
			fmt.Fprintf(os.Stderr, "pinned dc %s\n", dcKey(c.o))
		}
	}
	return os.WriteFile(path, marshalPins(all), 0o644)
}

// marshalPins renders the pins with sorted keys, one per line, so a
// re-pin diffs cleanly.
func marshalPins(p pins) []byte {
	var b strings.Builder
	b.WriteString("{\n")
	sets := []struct {
		name string
		set  pinSet
	}{{"paper", p.Paper}, {"dc-intake", p.DCIntake}, {"dc-backlog", p.DCBacklog}, {"lifetime", p.Lifetime}}
	for i, s := range sets {
		fmt.Fprintf(&b, "  %q: {\n", s.name)
		keys := make([]string, 0, len(s.set))
		for k := range s.set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for j, k := range keys {
			sep := ","
			if j == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    %q: %q%s\n", k, s.set[k], sep)
		}
		sep := ","
		if i == len(sets)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  }%s\n", sep)
	}
	b.WriteString("}\n")
	return []byte(b.String())
}
