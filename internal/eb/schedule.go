package eb

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Phase is one segment of a closed-loop load schedule: EBs concurrent
// emulated browsers walking Mix for Duration. Sessions are numbered from
// zero, so a phase of n browsers runs sessions 0..n-1: a larger phase
// starts the missing ones, a smaller one lets the excess finish their
// request in flight and stop, and a later phase that wants them back
// resumes them where they stopped. A change of mix between phases — with
// the population steady or not — is the false-alarm trap of static aging
// detectors that the detect package's shift guard exists for.
type Phase struct {
	Duration time.Duration
	EBs      int
	// Mix is the phase's own: it is not inherited from the driver's
	// configuration, and a literal that leaves it out walks Browsing. A
	// schedule meant to stay on the configured mix passes ShardedDriver.Mix.
	Mix Mix
}

// Fig3Schedule returns the paper's dynamic workload: a two-minute warm-up
// at 50 EBs, thirty minutes at 100 EBs and thirty minutes at 200 EBs, all
// on the Shopping mix.
func Fig3Schedule() []Phase {
	return []Phase{
		{Duration: 2 * time.Minute, EBs: 50, Mix: Shopping},
		{Duration: 30 * time.Minute, EBs: 100, Mix: Shopping},
		{Duration: 30 * time.Minute, EBs: 200, Mix: Shopping},
	}
}

// ProfileSchedule discretises a load profile into a phase schedule on one
// mix: one phase per merged profile step, with the level rounded to a
// browser population.
func ProfileSchedule(p sim.LoadProfile, total, step time.Duration, mix Mix) []Phase {
	steps := sim.DiscretizeProfile(p, total, step)
	out := make([]Phase, len(steps))
	for i, st := range steps {
		out[i] = Phase{Duration: st.Duration, EBs: max(0, int(math.Round(st.Level))), Mix: mix}
	}
	return out
}
