package sim

import (
	"math"
	"time"
)

// LoadProfile describes a time-varying load level: given the elapsed time
// since the scenario started it returns a non-negative intensity. The
// unit is up to the caller — the emulated-browser driver interprets it as
// a concurrent browser population. Profiles compose the workload-shape
// scenarios the online detectors must not mistake for aging: diurnal
// cycles, traffic bursts and step shifts.
type LoadProfile func(elapsed time.Duration) float64

// DiurnalProfile models a day/night cycle: a sinusoid around base with the
// given amplitude and period, floored at zero. At elapsed 0 the load is at
// its trough (night), peaking half a period in.
func DiurnalProfile(base, amplitude float64, period time.Duration) LoadProfile {
	if period <= 0 {
		panic("sim: DiurnalProfile with non-positive period")
	}
	return func(elapsed time.Duration) float64 {
		phase := 2 * math.Pi * float64(elapsed) / float64(period)
		v := base - amplitude*math.Cos(phase)
		if v < 0 {
			return 0
		}
		return v
	}
}

// BurstProfile holds base except during [start, start+width), where the
// level jumps to burst — a flash crowd.
func BurstProfile(base, burst float64, start, width time.Duration) LoadProfile {
	return func(elapsed time.Duration) float64 {
		if elapsed >= start && elapsed < start+width {
			return burst
		}
		return base
	}
}

// StepShiftProfile holds before until at, then after — the abrupt
// workload shift of the adaptive-detection literature.
func StepShiftProfile(before, after float64, at time.Duration) LoadProfile {
	return func(elapsed time.Duration) float64 {
		if elapsed < at {
			return before
		}
		return after
	}
}

// ProfileStep is one discretised segment of a LoadProfile.
type ProfileStep struct {
	// Offset is the segment's start, relative to the scenario start.
	Offset time.Duration
	// Duration is the segment length.
	Duration time.Duration
	// Level is the profile value sampled at the segment's start.
	Level float64
}

// DiscretizeProfile samples a profile every step over total and merges
// adjacent segments whose levels round to the same integer, yielding the
// piecewise-constant schedule event-driven load generators need. step
// must be positive and no larger than total.
func DiscretizeProfile(p LoadProfile, total, step time.Duration) []ProfileStep {
	if p == nil {
		panic("sim: DiscretizeProfile with nil profile")
	}
	if step <= 0 || total <= 0 || step > total {
		panic("sim: DiscretizeProfile needs 0 < step <= total")
	}
	var out []ProfileStep
	for off := time.Duration(0); off < total; off += step {
		d := step
		if off+d > total {
			d = total - off
		}
		level := p(off)
		if n := len(out); n > 0 && math.Round(out[n-1].Level) == math.Round(level) {
			out[n-1].Duration += d
			continue
		}
		out = append(out, ProfileStep{Offset: off, Duration: d, Level: level})
	}
	return out
}
