// Characterize a freshly "manufactured" chip: run the paper's full
// Sec. III-B methodology (idle → uBench → realistic workloads) against
// Monte-Carlo silicon rather than the paper's reference server,
// demonstrating that the procedure — not the calibration — is what
// exposes inter-core variation.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	atm "repro"
	"repro/internal/report"
)

func main() {
	seed := uint64(20260706)
	profile, err := atm.GenerateSilicon(seed, atm.GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := atm.NewMachine(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("characterizing generated server (seed %d): 2 chips × 8 cores\n\n", seed)

	rep, err := atm.Characterize(m, atm.CharactOptions{Trials: 10})
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title:  "ATM reconfiguration limits (generated silicon)",
		Header: []string{"core", "preset", "idle", "uBench", "thread normal", "thread worst", "idle freq (MHz)", "tight dist"},
	}
	for _, c := range rep.Cores {
		core := profile.FindCore(c.Core)
		t.AddRow(c.Core,
			fmt.Sprintf("%d", core.PresetTaps),
			fmt.Sprintf("%d", c.Idle.Limit),
			fmt.Sprintf("%d", c.UBenchLimit),
			fmt.Sprintf("%d", c.ThreadNormal),
			fmt.Sprintf("%d", c.ThreadWorst),
			report.F(float64(c.IdleFreq), 0),
			fmt.Sprintf("%v", c.Idle.Tight()))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The same structural findings as the paper emerge on fresh silicon:
	// limit ordering, robustness ranking, stressful applications.
	rank := rep.RobustnessRank()
	fmt.Printf("most vulnerable core: %s; most robust core: %s\n", rank[0], rank[len(rank)-1])

	var worstApp string
	var worstSum float64
	perApp := map[string]float64{}
	for _, c := range rep.Cores {
		for app, rb := range c.AppRollbackMean {
			perApp[app] += rb
		}
	}
	// Visit the apps in sorted order so a tie names the same app on
	// every run.
	apps := make([]string, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		if sum := perApp[app]; sum > worstSum {
			worstApp, worstSum = app, sum
		}
	}
	fmt.Printf("most ATM-stressful application on this chip: %s (total rollback %.1f steps)\n", worstApp, worstSum)
}
