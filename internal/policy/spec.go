// Package policy is the named registry of flavor-selection policies: every
// learning algorithm and baseline the system knows, constructible from a
// compact textual Spec like
//
//	vw-greedy:explore=1024,exploit=8,len=2
//	eps-greedy:eps=0.05
//	fixed:arm=2
//
// The registry is the single place the CLI, the concurrent service, the
// experiment harness and the examples resolve policies, so adding a
// policy here makes it selectable — and warm-startable, if it implements
// the core.WarmStarter capability — everywhere at once.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Spec is a parsed policy specification: a registry name plus key=value
// parameters.
type Spec struct {
	Name   string
	Params map[string]string
}

// ParseSpec parses "name" or "name:key=val,key=val". Parameter values are
// validated later, against the named policy's accepted keys.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	name, rest, hasParams := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return Spec{}, fmt.Errorf("policy: empty spec")
	}
	sp := Spec{Name: name, Params: map[string]string{}}
	if !hasParams {
		return sp, nil
	}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Spec{}, fmt.Errorf("policy: bad parameter %q in %q (want key=value)", part, s)
		}
		if _, dup := sp.Params[k]; dup {
			return Spec{}, fmt.Errorf("policy: duplicate parameter %q in %q", k, s)
		}
		sp.Params[k] = v
	}
	return sp, nil
}

// String renders the spec back into its canonical textual form.
func (sp Spec) String() string {
	if len(sp.Params) == 0 {
		return sp.Name
	}
	keys := make([]string, 0, len(sp.Params))
	for k := range sp.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + sp.Params[k]
	}
	return sp.Name + ":" + strings.Join(parts, ",")
}

// args is the typed view of a Spec's parameters a builder reads through:
// every getter records the key as consumed and accumulates conversion
// errors, and finish() rejects keys the policy does not accept — a typo in
// a spec fails loudly instead of silently running defaults.
type args struct {
	spec Spec
	used map[string]bool
	err  error
}

func newArgs(sp Spec) *args { return &args{spec: sp, used: make(map[string]bool)} }

func (a *args) raw(key string) (string, bool) {
	a.used[key] = true
	v, ok := a.spec.Params[key]
	return v, ok
}

func (a *args) fail(key, v, want string) {
	if a.err == nil {
		a.err = fmt.Errorf("policy %s: parameter %s=%q is not a valid %s", a.spec.Name, key, v, want)
	}
}

// Float returns the parameter as float64, or def when absent.
func (a *args) Float(key string, def float64) float64 {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail(key, v, "number")
		return def
	}
	return f
}

// Int returns the parameter as int, or def when absent.
func (a *args) Int(key string, def int) int {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		a.fail(key, v, "integer")
		return def
	}
	return n
}

// Bool returns the parameter as bool, or def when absent.
func (a *args) Bool(key string, def bool) bool {
	v, ok := a.raw(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		a.fail(key, v, "boolean")
		return def
	}
	return b
}

// check records a range violation for a key unless cond holds: out-of-range
// values are errors like ill-typed ones, never silent defaults. got is the
// effective value — when the key was never written in the spec, the bad
// value came from configuration defaults (Env), and the message must say
// so instead of blaming a spec parameter the user never typed.
func (a *args) check(cond bool, key string, got any, want string) {
	if cond || a.err != nil {
		return
	}
	if v, ok := a.spec.Params[key]; ok {
		a.err = fmt.Errorf("policy %s: parameter %s=%q out of range (want %s)",
			a.spec.Name, key, v, want)
	} else {
		a.err = fmt.Errorf("policy %s: effective %s=%v (from configuration defaults) out of range (want %s)",
			a.spec.Name, key, got, want)
	}
}

// finish returns the first conversion error or an unknown-key error.
func (a *args) finish() error {
	if a.err != nil {
		return a.err
	}
	var unknown []string
	for k := range a.spec.Params {
		if !a.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("policy %s: unknown parameter(s) %s", a.spec.Name, strings.Join(unknown, ", "))
	}
	return nil
}
