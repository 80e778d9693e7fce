package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Grammar is the profile spec grammar every fault plane shares: a
// preset name ("test-floor"), a comma-separated key=value list
// ("trial-err=0.1,broken=1"), or a preset with overrides
// ("test-floor,drop=0.3"). A preset must come first. The empty string
// is the zero profile. A profile type supplies only its presets, its
// key→field table, its dependent defaults and its validation; parsing,
// the canonical String form and the error wording live here once.
type Grammar[P comparable] struct {
	// Prefix opens every error message ("fault", "dc").
	Prefix string
	// Qualifier names the profile kind in errors: "" gives "unknown
	// profile"/"unknown key", "ops " gives "unknown ops profile"/
	// "unknown ops key".
	Qualifier string
	Presets   map[string]P
	// Keys lists the override keys in canonical order, the order String
	// renders and the unknown-key error lists them.
	Keys []Key[P]
	// Defaults fills dependent defaults after the overrides; Validate
	// then rejects the result.
	Defaults func(P) P
	Validate func(P) error
}

// Key binds one spec key to a field of P; build it with Count or Value.
type Key[P any] struct {
	name  string
	count func(*P) *int
	value func(*P) *float64
}

// Count binds key name to an int field, rendered %d.
func Count[P any](name string, field func(*P) *int) Key[P] {
	return Key[P]{name: name, count: field}
}

// Value binds key name to a float64 field, rendered %v. NaN passes
// every range check yet never equals itself, so it could not
// round-trip through String; the grammar rejects it.
func Value[P any](name string, field func(*P) *float64) Key[P] {
	return Key[P]{name: name, value: field}
}

// PresetNames lists the grammar's named profiles in sorted order.
func (g *Grammar[P]) PresetNames() []string {
	names := make([]string, 0, len(g.Presets))
	for n := range g.Presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Parse builds a profile from a spec string.
func (g *Grammar[P]) Parse(spec string) (P, error) {
	var zero P
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return zero, nil
	}
	// p escapes through the key accessors, so it is declared only once
	// there is a spec to parse, and the parts are walked with Cut
	// rather than Split: a parse allocates the profile and nothing else.
	var p P
	for i, rest, more := 0, spec, true; more; i++ {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, isKV := strings.Cut(part, "=")
		if !isKV {
			base, ok := g.Presets[part]
			if !ok {
				return zero, fmt.Errorf("%s: unknown %sprofile %q (have %s)",
					g.Prefix, g.Qualifier, part, strings.Join(g.PresetNames(), ", "))
			}
			if i != 0 {
				return zero, fmt.Errorf("%s: preset %q must come first in %q", g.Prefix, part, spec)
			}
			p = base
			continue
		}
		if err := g.set(&p, strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return zero, err
		}
	}
	p = g.Defaults(p)
	if err := g.Validate(p); err != nil {
		return zero, err
	}
	return p, nil
}

// set applies one key=value override.
func (g *Grammar[P]) set(p *P, k, v string) error {
	for _, key := range g.Keys {
		if key.name != k {
			continue
		}
		if key.count != nil {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("%s: bad count %q for %s", g.Prefix, v, k)
			}
			*key.count(p) = n
			return nil
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(x) {
			return fmt.Errorf("%s: bad value %q for %s", g.Prefix, v, k)
		}
		*key.value(p) = x
		return nil
	}
	names := make([]string, len(g.Keys))
	for i, key := range g.Keys {
		names[i] = key.name
	}
	return fmt.Errorf("%s: unknown %skey %q (want %s)", g.Prefix, g.Qualifier, k, strings.Join(names, ", "))
}

// String renders p as the canonical key=value spec Parse accepts:
// non-zero fields in key order; the zero profile renders as "none".
func (g *Grammar[P]) String(p P) string {
	var parts []string
	for _, key := range g.Keys {
		if key.count != nil {
			if n := *key.count(&p); n != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", key.name, n))
			}
		} else if x := *key.value(&p); x != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", key.name, x))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
