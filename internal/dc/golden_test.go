package dc

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the golden result snapshots under testdata/.
var update = flag.Bool("update", false, "rewrite golden dc result snapshots")

// TestGoldenResults snapshot-tests the canonical Result JSON of three
// campaigns against testdata/*.golden.json: a plain 2×4×8 fleet, the
// same fleet under ops-storm over 64 ticks, and a 1×1×2 fleet whose
// chassis cap sits below its idle draw. Intake, budget loop, placer
// and ops plane are all seeded, so any drift is a real behaviour
// change. Regenerate intentionally with:
//
//	go test ./internal/dc -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"2x4x8-plain", Options{Racks: 2, ChassisPerRack: 4, ChipsPerChassis: 8}},
		{"2x4x8-ops-storm-t64", Options{Racks: 2, ChassisPerRack: 4, ChipsPerChassis: 8,
			Ticks: 64, OpsFaultProfile: "ops-storm", OpsFaultSeed: 1}},
		{"1x1x2-chassis-cap-30", Options{Racks: 1, ChassisPerRack: 1, ChipsPerChassis: 2,
			Ticks: 8, ChassisCapW: 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.Workers = 4
			res, err := Run(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			got := canon(t, res)
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: canonical result drifted from %s (%d bytes, want %d)",
					tc.name, path, len(got), len(want))
			}
		})
	}
}
