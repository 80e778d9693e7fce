package dc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestParseOpsProfilePresets(t *testing.T) {
	for _, name := range OpsPresetNames() {
		p, err := ParseOpsProfile(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if name == "none" {
			if !p.Empty() {
				t.Fatalf("preset none parsed non-empty: %+v", p)
			}
			continue
		}
		if p.Empty() {
			t.Fatalf("preset %q parsed empty", name)
		}
	}
	if p, err := ParseOpsProfile(""); err != nil || !p.Empty() {
		t.Fatalf("empty spec = (%+v, %v), want empty profile", p, err)
	}
}

func TestParseOpsProfileOverridesAndErrors(t *testing.T) {
	p, err := ParseOpsProfile("flaky-links,grace=4,flap-ticks=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkFlaps != 2 || p.GraceTicks != 4 || p.FlapTicks != 9 {
		t.Fatalf("override parse = %+v", p)
	}
	// Error text reaches stderr verbatim, so it is pinned byte for byte.
	for _, tc := range []struct{ spec, want string }{
		{"nope", `dc: unknown ops profile "nope" (have brownout, chip-death, flaky-links, none, ops-storm, rack-brownout, thermal)`},
		{"chip-deaths=1,ops-storm", `dc: preset "ops-storm" must come first in "chip-deaths=1,ops-storm"`},
		{"chip-deaths=x", `dc: bad count "x" for chip-deaths`},
		{"thermal-frac=abc", `dc: bad value "abc" for thermal-frac`},
		{"brownouts=1,brownout-frac=NaN", `dc: bad value "NaN" for brownout-frac`},
		{"chip-deaths=-1", `dc: negative event count in ops profile chip-deaths=-1`},
		{"grace=-2", `dc: negative duration in ops profile grace=-2`},
		{"thermals=1,thermal-frac=1.5", `dc: thermal-frac 1.5 outside [0,1) — the excursion must land below the idle floor`},
		{"brownouts=1,brownout-frac=2", `dc: brownout-frac 2 outside [0,1]`},
		{"wibble=3", `dc: unknown ops key "wibble" (want chip-deaths, link-flaps, flap-ticks, grace, readmit, brownouts, rack-brownouts, brownout-frac, brownout-ticks, thermals, thermal-frac, thermal-ticks)`},
	} {
		_, err := ParseOpsProfile(tc.spec)
		if err == nil {
			t.Errorf("ParseOpsProfile(%q) accepted, want error", tc.spec)
		} else if err.Error() != tc.want {
			t.Errorf("ParseOpsProfile(%q) error\n got: %s\nwant: %s", tc.spec, err, tc.want)
		}
	}
}

func TestOpsProfileStringRoundTrip(t *testing.T) {
	specs := append(OpsPresetNames(),
		"chip-deaths=2,link-flaps=1,grace=3",
		"brownouts=1,rack-brownouts=2,brownout-frac=0.4",
		"thermals=3,thermal-frac=0.25,thermal-ticks=9",
	)
	for _, spec := range specs {
		p, err := ParseOpsProfile(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		q, err := ParseOpsProfile(p.String())
		if err != nil {
			t.Fatalf("round-trip parse of %q (from %q): %v", p.String(), spec, err)
		}
		if p != q {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, q)
		}
	}
	if got := (OpsProfile{}).String(); got != "none" {
		t.Fatalf("empty profile String() = %q, want none", got)
	}
}

func TestDrawOpsDeterministicAndBounded(t *testing.T) {
	o := Options{Racks: 2, ChassisPerRack: 2, ChipsPerChassis: 2, Ticks: 24}
	p, err := ParseOpsProfile("ops-storm,rack-brownouts=1")
	if err != nil {
		t.Fatal(err)
	}
	a := DrawOps(p, 7, o, nil)
	b := DrawOps(p, 7, o, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DrawOps is not deterministic for identical inputs")
	}
	if len(a) != 1+2+1+1+1 {
		t.Fatalf("schedule has %d events, want 6", len(a))
	}
	nChips := 2 * 2 * 2
	for i, ev := range a {
		if ev.Tick < 1 || ev.Tick > o.Ticks-1 {
			t.Fatalf("event %d tick %d outside [1,%d]", i, ev.Tick, o.Ticks-1)
		}
		switch ev.Kind {
		case OpsChipDeath, OpsLinkFlap, OpsThermal:
			if ev.Target < 0 || ev.Target >= nChips {
				t.Fatalf("event %d chip target %d out of range", i, ev.Target)
			}
		case OpsBrownout:
			if ev.Target < 0 || ev.Target >= 2*2 {
				t.Fatalf("event %d chassis target %d out of range", i, ev.Target)
			}
		case OpsRackBrownout:
			if ev.Target < 0 || ev.Target >= 2 {
				t.Fatalf("event %d rack target %d out of range", i, ev.Target)
			}
		}
		if i > 0 && a[i-1].Tick > ev.Tick {
			t.Fatal("schedule is not sorted by tick")
		}
	}
	if c := DrawOps(p, 8, o, nil); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical schedules")
	}
}

func TestDrawOpsRespectsLiveMask(t *testing.T) {
	o := Options{Racks: 1, ChassisPerRack: 1, ChipsPerChassis: 4, Ticks: 16}
	p := OpsProfile{ChipDeaths: 4, LinkFlaps: 4, Thermals: 4}
	live := []bool{false, true, true, true}
	for _, ev := range DrawOps(p, 3, o, live) {
		if ev.Target == 0 {
			t.Fatalf("chip-scoped event %v targeted a non-live chip", ev)
		}
	}
}

func TestOpsKindString(t *testing.T) {
	if OpsChipDeath.String() != "chip-death" || OpsKind(99).String() != "invalid" {
		t.Fatal("OpsKind.String mismatch")
	}
}

// FuzzProfileSpec drives both users of the shared fault.Grammar —
// fault.ParseProfile and ParseOpsProfile — with every input: whatever
// parses must validate, render canonically without spaces, and
// round-trip to the identical profile.
func FuzzProfileSpec(f *testing.F) {
	for _, seed := range []string{
		"ops-storm", "none",
		"chip-deaths=1,link-flaps=2,grace=3",
		"flaky-links,readmit=5",
		"thermals=2,thermal-frac=0.9",
		"brownouts=1,brownout-frac=0.5,brownout-ticks=3,rack-brownouts=2",
		"", "brownout-frac=NaN",
		"test-floor", "noisy-cpm,drop=0.3",
		"trial-err=0.1,broken=1,cpm-upset=0.2",
		"drop=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip(t, spec, fault.ParseProfile, fault.Profile.String, fault.Profile.Validate)
		roundTrip(t, spec, ParseOpsProfile, OpsProfile.String, OpsProfile.Validate)
	})
}

func roundTrip[P comparable](t *testing.T, spec string, parse func(string) (P, error),
	str func(P) string, validate func(P) error) {
	t.Helper()
	p, err := parse(spec)
	if err != nil {
		return
	}
	if verr := validate(p); verr != nil {
		t.Fatalf("parsed profile fails Validate: %v (spec %q)", verr, spec)
	}
	s := str(p)
	q, err := parse(s)
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v (spec %q)", s, err, spec)
	}
	if p != q {
		t.Fatalf("round trip diverged: %+v != %+v (spec %q, canonical %q)", p, q, spec, s)
	}
	if strings.Contains(s, " ") {
		t.Fatalf("canonical form contains spaces: %q", s)
	}
}
