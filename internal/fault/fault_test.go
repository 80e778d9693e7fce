package fault

import (
	"strings"
	"testing"
)

func TestParsePresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParseProfile(name)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", name, err)
		}
		if name == "none" && !p.Empty() {
			t.Errorf("none parsed non-empty: %+v", p)
		}
		if name != "none" && p.Empty() {
			t.Errorf("%s parsed empty", name)
		}
	}
	if _, err := ParseProfile("no-such-profile"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestParseKeyValues(t *testing.T) {
	p, err := ParseProfile("trial-err=0.1,broken=2,drop=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.TrialErrProb != 0.1 || p.BrokenCores != 2 || p.DropProb != 0.05 {
		t.Errorf("parsed %+v", p)
	}
}

func TestParsePresetWithOverride(t *testing.T) {
	base, err := ParseProfile("test-floor")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile("test-floor,drop=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropProb != 0.3 {
		t.Errorf("override ignored: %+v", p)
	}
	if p.TelemetryErrProb != base.TelemetryErrProb {
		t.Errorf("preset fields lost: %+v", p)
	}
	// A preset anywhere but first is ambiguous and must be rejected.
	if _, err := ParseProfile("drop=0.3,test-floor"); err == nil {
		t.Error("late preset accepted")
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	// Error text reaches stderr verbatim, so it is pinned byte for byte.
	for _, tc := range []struct{ spec, want string }{
		{"drop=1.5", `fault: drop probability 1.5 outside [0,1]`},
		{"trial-err=-0.1", `fault: trial-err probability -0.1 outside [0,1]`},
		{"drop=0.6,garble=0.6", `fault: drop+garble probability 1.2 exceeds 1`},
		{"broken=-1", `fault: negative count in profile broken=-1`},
		{"bogus=1", `fault: unknown key "bogus" (want cpm-upset, cpm-upset-mag, stuck, telemetry, drop, garble, trial-err, broken)`},
		{"drop=abc", `fault: bad value "abc" for drop`},
		{"drop=NaN", `fault: bad value "NaN" for drop`},
		{"stuck=x", `fault: bad count "x" for stuck`},
		{"no-such-profile", `fault: unknown profile "no-such-profile" (have broken-core, flaky-fsp, noisy-cpm, none, test-floor)`},
		{"drop=0.3,test-floor", `fault: preset "test-floor" must come first in "drop=0.3,test-floor"`},
	} {
		_, err := ParseProfile(tc.spec)
		if err == nil {
			t.Errorf("ParseProfile(%q) accepted", tc.spec)
		} else if err.Error() != tc.want {
			t.Errorf("ParseProfile(%q) error\n got: %s\nwant: %s", tc.spec, err, tc.want)
		}
	}
}

func TestUpsetMagDefault(t *testing.T) {
	p, err := ParseProfile("cpm-upset=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.CPMUpsetMag != 3 {
		t.Errorf("default upset magnitude %d, want 3", p.CPMUpsetMag)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParseProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := p.String()
		back, err := ParseProfile(spec)
		if err != nil {
			t.Fatalf("%s: re-parse %q: %v", name, spec, err)
		}
		if back != p {
			t.Errorf("%s: %q round-tripped to %+v, want %+v", name, spec, back, p)
		}
	}
	if s := (Profile{}).String(); s != "none" {
		t.Errorf("empty profile renders %q", s)
	}
	if s := (Profile{DropProb: 0.5}).String(); !strings.Contains(s, "drop=0.5") {
		t.Errorf("drop profile renders %q", s)
	}
}
