package scenario

import (
	"strings"
	"testing"
)

// FuzzScenarioParse hammers the -scenario / Spec.Scenario decoder with
// arbitrary strings. Contract: never panic; any scenario Parse accepts
// must validate cleanly and compile, without panicking, against a
// single-region and a two-region replay geometry. File references
// ("@path") are skipped so the fuzzer never opens files.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add(`[{"kind":"spike","model":"dlrm-rmc1","start_h":8,"end_h":10,"factor":3,"ramp_h":0.5}]`)
	f.Add(`{"name":"k","events":[{"kind":"kill","type":"T2","start_h":1,"end_h":2,"frac":0.5}]}`)
	f.Add(`[{"kind":"derate","start_h":0,"end_h":24,"factor":0.6}]`)
	f.Add(`[{"kind":"powercap","type":"T2","watts":5250,"start_h":0.33,"end_h":0.84}]`)
	f.Add(`[{"kind":"blackout","region":"east","start_h":0.5,"end_h":1}]`)
	f.Add(`[{"kind":"derate","type":"T2","start_h":0,"end_h":2,"factor":0.5},{"kind":"powercap","type":"T2","watts":100,"start_h":1,"end_h":3}]`)
	f.Add(`[{"kind":"kill","count":-3,"start_h":-1,"end_h":1e308}]`)
	f.Add(`{"events":null}`)
	f.Add(`[`)
	f.Add(``)
	counts := map[string]int{"T1": 8, "T2": 4}
	regionCounts := map[string]map[string]int{"east": counts, "west": {"T2": 6}}
	f.Fuzz(func(t *testing.T, s string) {
		if strings.HasPrefix(strings.TrimSpace(s), "@") {
			return
		}
		sc, err := Parse(s)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted %q but Validate rejects it: %v", s, err)
		}
		if tl, err := Compile(sc, 96, 900, counts); err == nil {
			for i := 0; i < tl.Steps(); i++ {
				tl.At(i)
			}
		}
		CompileRegions(sc, 96, 900, []string{"east", "west"}, regionCounts)
	})
}
