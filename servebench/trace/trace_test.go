package trace

import (
	"testing"

	"github.com/dphist/dphist/servebench/bench"
)

func TestLayersMatchDeclaration(t *testing.T) {
	spec, err := bench.LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(Layers) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(Layers))
	}
	for i, m := range spec.PerLayer {
		if m != Layers[i] {
			t.Errorf("per_layer[%d] is %+v, traced run reports %+v", i, m, Layers[i])
		}
	}
}
