package bench

import (
	"strings"
	"testing"
)

func TestCheckOutput(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]Metric{}
	for _, m := range spec.EndToEnd {
		full[m.Name] = Metric{Value: 1.5, Unit: m.Unit}
	}
	for _, w := range Workloads {
		if err := CheckOutput(spec, w, false, full); err != nil {
			t.Fatalf("%s: complete output rejected: %v", w, err)
		}
	}
	if err := CheckOutput(spec, "no-such-workload", false, full); err == nil {
		t.Fatal("undeclared workload accepted")
	}
	mutate := func(f func(map[string]Metric)) map[string]Metric {
		m := map[string]Metric{}
		for k, v := range full {
			m[k] = v
		}
		f(m)
		return m
	}
	for name, bad := range map[string]map[string]Metric{
		"missing":    mutate(func(m map[string]Metric) { delete(m, "setup_s") }),
		"unit":       mutate(func(m map[string]Metric) { m["setup_s"] = Metric{Value: 1, Unit: "ms"} }),
		"undeclared": mutate(func(m map[string]Metric) { m["extra"] = Metric{Value: 1, Unit: "s"} }),
		"nan":        mutate(func(m map[string]Metric) { m["setup_s"] = Metric{Value: inf - inf, Unit: "s"} }),
	} {
		if err := CheckOutput(spec, ReadBulk, false, bad); err == nil {
			t.Errorf("%s: bad output accepted", name)
		}
	}
	if err := CheckOutput(spec, ReadBulk, true, full); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("end-to-end metrics accepted as the traced output: %v", err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared name %q", m.Name)
		}
	}
}
