package noise

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Parse builds a NoiseProfile from the colon-separated flag syntax used
// by the command-line tools, parallel to topology.Parse and
// workload.Parse:
//
//	silent | none | off | 0
//	exp:<level>[:cap=<dur>]          relative level (the paper's E)
//	exp:<mean dur>[:cap=<dur>]       absolute mean ("exp:2.4us:cap=30us")
//	bimodal[:<mean dur>][:cap=<dur>][:spike=<mean>@<offset>][:w=<weight>]
//	periodic:<dur>@<period>          OS jitter ("periodic:500us@10ms")
//	emmy | meggie                    the Fig. 3 natural-noise profiles
//
// A value that parses as a duration ("2.4us", "500ns") is absolute;
// a bare number ("1.5") is relative to the execution phase. Profiles
// combine with "+": "exp:0.5+periodic:500us@10ms". Bimodal options
// default to the Omni-Path (Meggie) parameters. String() on any built-in
// profile renders this syntax back, so specs round-trip.
func Parse(s string) (NoiseProfile, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return nil, fmt.Errorf("noise: empty spec")
	}
	if strings.Contains(trimmed, "+") {
		var parts []NoiseProfile
		for _, p := range strings.Split(trimmed, "+") {
			np, err := parseOne(p)
			if err != nil {
				return nil, err
			}
			parts = append(parts, np)
		}
		return CombineNoise(parts...), nil
	}
	return parseOne(trimmed)
}

// parseOne parses a single (uncombined) profile spec.
func parseOne(s string) (NoiseProfile, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	kind := strings.ToLower(strings.TrimSpace(parts[0]))
	switch kind {
	case "silent", "none", "off", "0":
		if len(parts) > 1 {
			return nil, fmt.Errorf("noise: %q: %s takes no options", s, kind)
		}
		return SilentNoise{}, nil
	case "emmy":
		if len(parts) > 1 {
			return nil, fmt.Errorf("noise: %q: emmy takes no options", s)
		}
		return EmmyNoise(), nil
	case "meggie":
		if len(parts) > 1 {
			return nil, fmt.Errorf("noise: %q: meggie takes no options", s)
		}
		return MeggieNoise(), nil
	case "exp":
		return parseExp(s, parts[1:])
	case "bimodal":
		return parseBimodal(s, parts[1:])
	case "periodic":
		return parsePeriodic(s, parts[1:])
	default:
		return nil, fmt.Errorf("noise: %q: unknown kind %q (want silent, exp, bimodal, periodic, emmy or meggie)", s, kind)
	}
}

// parseExp reads "exp:<level-or-mean>[:cap=<dur>]".
func parseExp(orig string, parts []string) (NoiseProfile, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("noise: %q: exp needs a level or mean, e.g. exp:1.5 or exp:2.4us", orig)
	}
	var e ExponentialNoise
	val := strings.TrimSpace(parts[0])
	if d, err := time.ParseDuration(val); err == nil {
		if d <= 0 {
			return nil, fmt.Errorf("noise: %q: non-positive mean %q", orig, val)
		}
		e.Mean = sim.Time(d.Seconds())
	} else if lv, err := strconv.ParseFloat(val, 64); err == nil {
		if !(lv > 0) || math.IsInf(lv, 0) {
			return nil, fmt.Errorf("noise: %q: level %q is not a positive number", orig, val)
		}
		e.Level = lv
	} else {
		return nil, fmt.Errorf("noise: %q: bad exp value %q (want a level like 1.5 or a duration like 2.4us)", orig, val)
	}
	for _, opt := range parts[1:] {
		k, v, err := splitNoiseOption(opt)
		if err != nil {
			return nil, fmt.Errorf("noise: %q: %w", orig, err)
		}
		switch k {
		case "cap":
			e.Cap, err = parseNoiseDuration(v, "cap")
		default:
			err = fmt.Errorf("unknown option %q for exp", k)
		}
		if err != nil {
			return nil, fmt.Errorf("noise: %q: %w", orig, err)
		}
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseBimodal reads
// "bimodal[:<mean>][:cap=..][:spike=<mean>@<offset>][:w=..][:wbulk=..]",
// starting from the Meggie parameters.
func parseBimodal(orig string, parts []string) (NoiseProfile, error) {
	b := MeggieNoise()
	rest := parts
	if len(rest) > 0 && !strings.Contains(rest[0], "=") {
		mean, err := parseNoiseDuration(rest[0], "mean")
		if err != nil {
			return nil, fmt.Errorf("noise: %q: %w", orig, err)
		}
		b.Mean = mean
		rest = rest[1:]
	}
	for _, opt := range rest {
		k, v, err := splitNoiseOption(opt)
		if err != nil {
			return nil, fmt.Errorf("noise: %q: %w", orig, err)
		}
		switch k {
		case "cap":
			b.Cap, err = parseNoiseDuration(v, "cap")
		case "spike":
			mean, off, splitErr := splitAt(v)
			if splitErr != nil {
				err = splitErr
				break
			}
			if b.SpikeMean, err = parseNoiseDuration(mean, "spike mean"); err != nil {
				break
			}
			b.SpikeOffset, err = parseNoiseDuration(off, "spike offset")
		case "w":
			b.SpikeWeight, err = parseNoiseFloat(v, "w")
			b.BulkWeight = 0 // re-derive from the new spike weight
		case "wbulk":
			b.BulkWeight, err = parseNoiseFloat(v, "wbulk")
		default:
			err = fmt.Errorf("unknown option %q for bimodal", k)
		}
		if err != nil {
			return nil, fmt.Errorf("noise: %q: %w", orig, err)
		}
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// parsePeriodic reads "periodic:<dur>@<period>".
func parsePeriodic(orig string, parts []string) (NoiseProfile, error) {
	if len(parts) != 1 {
		return nil, fmt.Errorf("noise: %q: periodic wants exactly periodic:<dur>@<period>, e.g. periodic:500us@10ms", orig)
	}
	durS, perS, err := splitAt(parts[0])
	if err != nil {
		return nil, fmt.Errorf("noise: %q: %w", orig, err)
	}
	var p PeriodicNoise
	if p.Duration, err = parseNoiseDuration(durS, "duration"); err != nil {
		return nil, fmt.Errorf("noise: %q: %w", orig, err)
	}
	if p.Period, err = parseNoiseDuration(perS, "period"); err != nil {
		return nil, fmt.Errorf("noise: %q: %w", orig, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// splitAt splits a "<x>@<y>" value.
func splitAt(v string) (before, after string, err error) {
	b, a, ok := strings.Cut(v, "@")
	if !ok || b == "" || a == "" {
		return "", "", fmt.Errorf("bad value %q (want <duration>@<duration>)", v)
	}
	return b, a, nil
}

// splitNoiseOption splits "key=value", lowercasing the key.
func splitNoiseOption(opt string) (key, value string, err error) {
	o := strings.TrimSpace(opt)
	k, v, ok := strings.Cut(o, "=")
	if !ok || k == "" || v == "" {
		return "", "", fmt.Errorf("bad option %q (want key=value)", opt)
	}
	return strings.ToLower(k), v, nil
}

func parseNoiseDuration(v, key string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(v))
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q (want a positive duration like 500us)", key, v)
	}
	return sim.Time(d.Seconds()), nil
}

func parseNoiseFloat(v, key string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(f > 0) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad %s %q (want a positive number)", key, v)
	}
	return f, nil
}
