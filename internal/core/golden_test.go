package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"amoeba/internal/obs"
	"amoeba/internal/trace"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// goldenStream is one pinned run: the SHA-256 of its full JSONL event
// stream. The scenarios are built exactly as amoeba.NewScenario builds
// them (trough 0.2, background tenants at seed+7), so the two seed
// 0xA0EBA dd rows equal `amoeba-sim -variant <v> -day-length <d>
// -events out.jsonl` followed by sha256sum.
type goldenStream struct {
	name    string
	prof    workload.Profile
	variant Variant
	day     units.Seconds
	seed    uint64
	shards  int // 0 = sequential kernel
	sha256  string
}

var goldenStreams = []goldenStream{
	{"openwhisk-dd-300-a0eba", workload.DD(), VariantOpenWhisk, 300, 0xA0EBA, 0,
		"082dbebe5e0f831f313ad1ce418614f7837dec710ec228a7135a237d7a7f0b0c"},
	{"openwhisk-dd-300-s1", workload.DD(), VariantOpenWhisk, 300, 1, 0,
		"ec8e9c01691bd6b115870b1f0d7c982c072d073ef78d898e81a83f3e0466d1c9"},
	{"openwhisk-dd-300-s7", workload.DD(), VariantOpenWhisk, 300, 7, 0,
		"573985ca31f2dfe406d147e34397e5db42e50b15e659c9b55dc0c11ef21a9865"},
	{"openwhisk-cloud_stor-300-s7", workload.CloudStor(), VariantOpenWhisk, 300, 7, 0,
		"a88ec705073543f87d3b8bc74c3a7b838870f286a534dd0f441bbe948cd19f61"},
	{"amoeba-dd-1200-a0eba", workload.DD(), VariantAmoeba, 1200, 0xA0EBA, 0,
		"1c53f25378bc63884fd8220f4b920703bd9404b7463fac5a3847367e2fa4e302"},
	{"amoeba-dd-1200-s1", workload.DD(), VariantAmoeba, 1200, 1, 0,
		"e7127fd515791cc6fbf45b1189aad05ea3c4033fea3222bca84ad5350f3d858f"},
	{"amoeba-dd-1200-s7", workload.DD(), VariantAmoeba, 1200, 7, 0,
		"b7fd6020545281628a511724b178dd9752d274f1cefbe1abd61cda09767dae51"},
	{"amoeba-float-1200-s7-shards2", workload.Float(), VariantAmoeba, 1200, 7, 2,
		"e105d44ffb4ad391933f5b2429cf820d37ebed966b8e281b1e5154e6bd4f962d"},
}

// streamSHA256 runs the scenario with a JSONL sink writing straight into
// a SHA-256 and returns the hex digest and the event count.
func (g goldenStream) streamSHA256(t *testing.T) (string, int) {
	t.Helper()
	sc := Scenario{
		Variant: g.variant,
		Services: []ServiceSpec{{
			Profile: g.prof,
			Trace:   trace.NewDiurnal(g.prof.PeakQPS, g.prof.PeakQPS*0.2, g.day.Raw(), g.seed),
		}},
		Background: BackgroundTenants(g.day, g.seed+7),
		Duration:   g.day,
		Seed:       g.seed,
		Bus:        obs.NewBus(),
	}
	h := sha256.New()
	w := obs.NewJSONLWriter(h)
	sc.Bus.Attach(w)
	if g.shards > 0 {
		RunSharded(sc, g.shards)
	} else {
		Run(sc)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("%s: event stream: %v", g.name, err)
	}
	return hex.EncodeToString(h.Sum(nil)), w.Count()
}

// TestGoldenEventStreams pins the byte-exact event stream of the core
// OpenWhisk and Amoeba runs over several seeds, both kernels and two
// benchmarks. A dispatch or scheduling change that alters any placement,
// RNG draw or event order changes a digest; only an explicit, recorded
// re-baseline may edit the table.
func TestGoldenEventStreams(t *testing.T) {
	skipIfRace(t)
	for _, g := range goldenStreams {
		t.Run(g.name, func(t *testing.T) {
			got, n := g.streamSHA256(t)
			if n == 0 {
				t.Fatal("empty event stream")
			}
			if got != g.sha256 {
				t.Errorf("event stream sha256 = %s (%d events), want %s", got, n, g.sha256)
			}
		})
	}
}
