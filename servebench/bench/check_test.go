package bench

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/dphist/dphist"
)

// mintReplyFor builds the server's reply to a mint of t at version v.
func mintReplyFor(t *testing.T, tg *Target, rel dphist.Release, version int, remaining float64) []byte {
	t.Helper()
	raw, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"namespace": tg.NS, "name": tg.Name, "version": version, "strategy": rel.Strategy().String(),
		"release": json.RawMessage(raw), "budget_remaining": remaining,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func queryReplyFor(version int, answers []float64) []byte {
	b := []byte(`{"namespace":"dash-a","name":"traffic","version":` + strconv.Itoa(version) + `,"strategy":"universal","answers":[`)
	for i, a := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, a, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

func TestCheckerCatchesTamperedAnswer(t *testing.T) {
	_, counts := Dataset(1, ReadDomain, 50000)
	m := dphist.MustNew(dphist.WithSeed(9))
	rel, err := m.UniversalHistogram(counts, MintEps)
	if err != nil {
		t.Fatal(err)
	}
	tg := &InteractiveTargets[0]
	mint := &Mint{Target: tg, Strategy: "universal"}
	c := NewChecker()
	if err := c.Reply(MintReq(mint), mintReplyFor(t, tg, rel, 1, Budget-MintEps)); err != nil {
		t.Fatalf("honest mint reply rejected: %v", err)
	}
	gen := NewQueryGen(1, 1, InteractiveTargets[:1], ReadDomain, ReadGrid, 8, 0)
	q := gen.Next()
	answers, err := dphist.QueryBatch(rel, q.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reply(QueryReq(q), queryReplyFor(1, answers)); err != nil {
		t.Fatalf("honest answers rejected: %v", err)
	}
	tampered := append([]float64(nil), answers...)
	tampered[3] = math.Nextafter(tampered[3], math.Inf(1))
	if err := c.Reply(QueryReq(q), queryReplyFor(1, tampered)); err == nil {
		t.Fatal("answer off by one ulp accepted")
	}
	if err := c.Reply(QueryReq(q), queryReplyFor(1, answers[:7])); err == nil {
		t.Fatal("short answer list accepted")
	}
	// A reply naming a version that was never minted fails once no mint
	// reply can deliver it.
	if err := c.Reply(QueryReq(q), queryReplyFor(2, answers)); err != nil {
		t.Fatalf("early reply rejected before its mint arrived: %v", err)
	}
	if c.LateFailures() != 1 {
		t.Fatalf("unresolved early reply not counted: %d", c.LateFailures())
	}
}

func TestCheckerBudgetAndVersion(t *testing.T) {
	_, counts := Dataset(1, ReadDomain, 50000)
	rel, err := dphist.MustNew(dphist.WithSeed(3)).LaplaceHistogram(counts, MintEps)
	if err != nil {
		t.Fatal(err)
	}
	tg := &InteractiveTargets[2]
	mint := &Mint{Target: tg, Strategy: "laplace"}
	c := NewChecker()
	if err := c.Reply(MintReq(mint), mintReplyFor(t, tg, rel, 1, Budget-MintEps)); err != nil {
		t.Fatal(err)
	}
	if err := c.Reply(MintReq(mint), mintReplyFor(t, tg, rel, 2, Budget-MintEps)); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("budget that did not drop accepted: %v", err)
	}
	if err := c.Reply(MintReq(mint), mintReplyFor(t, tg, rel, 3, Budget-2*MintEps)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("skipped version accepted: %v", err)
	}
	if err := c.Reply(MintReq(&Mint{Target: tg, Strategy: "universal"}), mintReplyFor(t, tg, rel, 2, Budget-2*MintEps)); err == nil {
		t.Fatal("laplace release accepted for a universal mint")
	}
}

func TestParseQueryReply(t *testing.T) {
	want := []float64{0, -1.5, 3e-7, 123456789, math.MaxFloat64}
	v, got, err := ParseQueryReply(queryReplyFor(12, want), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 12 || len(got) != len(want) {
		t.Fatalf("version %d, %d answers", v, len(got))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("answer %d: %v, want %v", i, got[i], want[i])
		}
	}
	if _, got, err := ParseQueryReply([]byte(`{"version":1,"answers":[]}`), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty answers: %v %v", got, err)
	}
	for _, bad := range []string{`{"answers":[1]}`, `{"version":1,"answers":[1,]}`, `{"version":1,"answers":[1`, `{"version":1,"answers":[x]}`} {
		if _, _, err := ParseQueryReply([]byte(bad), nil); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestCheckIngest(t *testing.T) {
	if err := checkIngest([]byte(`{"namespace":"events","accepted":100,"dropped":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := checkIngest([]byte(`{"namespace":"events","accepted":99,"dropped":1}`)); err == nil {
		t.Fatal("dropped event accepted")
	}
}
