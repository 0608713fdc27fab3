package jsonw

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// AppendFloat matches encoding/json on the integer fast path's edges,
// the exponent switch, and random whole numbers and bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.5,
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, 1 << 62, 1 << 63,
		1e20, 1e21, -1e21, 9.5e20, 1e-6, 9.9e-7, 1e-7, -1e-7,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		vals = append(vals,
			float64(rng.Int64N(1<<54)-1<<53),
			math.Float64frombits(rng.Uint64()),
			math.Round(rng.NormFloat64()*1e6),
		)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		got, err := AppendFloat(nil, v)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", v, err)
		}
		if want := marshal(t, v); string(got) != want {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, bad); err == nil {
			t.Fatalf("AppendFloat(%v) succeeded", bad)
		}
	}
}

// The composite appenders match encoding/json, nil slices included.
func TestAppendCompositesMatchEncodingJSON(t *testing.T) {
	for _, v := range [][]float64{nil, {}, {1, -0.25, 3e21}} {
		got, err := AppendFloats(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshal(t, v); string(got) != want {
			t.Fatalf("AppendFloats(%v) = %s, want %s", v, got, want)
		}
	}
	for _, v := range [][]int{nil, {}, {-1, 0, 1 << 40}} {
		if got, want := string(AppendInts(nil, v)), marshal(t, v); got != want {
			t.Fatalf("AppendInts(%v) = %s, want %s", v, got, want)
		}
	}
	for _, s := range []string{"", "plain", "a<b>&c", "q\"\\\n\r\t\x00\x1f", "é\x80\u2028\u2029z"} {
		if got, want := string(AppendString(nil, s)), marshal(t, s); got != want {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	for _, tm := range []time.Time{
		{},
		time.Date(2026, 1, 2, 3, 4, 5, 6, time.FixedZone("", 5400)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -(23*3600+59*60+59))),
		time.Date(1, 2, 3, 4, 5, 6, 700000000, time.FixedZone("", 23*3600+45)),
		time.Date(2026, 10, 19, 4, 0, 0, 120, time.Local),
		time.Unix(1<<33, 5).UTC(),
	} {
		got, err := AppendTime(nil, tm)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshal(t, tm); string(got) != want {
			t.Fatalf("AppendTime(%v) = %s, want %s", tm, got, want)
		}
	}
	for _, bad := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2026, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600-30)),
	} {
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("json.Marshal accepted %v", bad)
		}
		if _, err := AppendTime(nil, bad); err == nil {
			t.Fatalf("AppendTime accepted %v", bad)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(10, func() { buf, _ = AppendTime(buf[:0], time.Now()) }); n != 0 {
		t.Fatalf("AppendTime allocates %v times into a large enough buffer", n)
	}
}

// BenchmarkAppendFloat formats the answers of a 10,000-spec read of a
// rounded release: whole numbers, which take the integer fast path.
func BenchmarkAppendFloat(b *testing.B) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64((i * 7919) % 100000)
	}
	buf := make([]byte, 0, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := buf[:0]
		for _, v := range vals {
			out, _ = AppendFloat(out, v)
			out = append(out, ',')
		}
	}
}
