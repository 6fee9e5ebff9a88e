package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	digest, n, _ := runDigest(t, goldenScenario(g.prof, g.variant, g.day, g.seed), g.shards)
	return digest, n
}

// goldenScenario builds a one-service scenario exactly as
// amoeba.NewScenario does: trough 0.2, background tenants at seed+7.
func goldenScenario(prof workload.Profile, v Variant, day units.Seconds, seed uint64) Scenario {
	return Scenario{
		Variant: v,
		Services: []ServiceSpec{{
			Profile: prof,
			Trace:   trace.NewDiurnal(prof.PeakQPS, prof.PeakQPS*0.2, day.Raw(), seed),
		}},
		Background: BackgroundTenants(day, seed+7),
		Duration:   day,
		Seed:       seed,
	}
}

// runDigest runs sc (shards 0 = sequential kernel) with a JSONL sink
// writing straight into a SHA-256 and returns the hex digest, the event
// count and the result.
func runDigest(t *testing.T, sc Scenario, shards int) (string, int, *Result) {
	t.Helper()
	sc.Bus = obs.NewBus()
	h := sha256.New()
	w := obs.NewJSONLWriter(h)
	sc.Bus.Attach(w)
	var res *Result
	if shards > 0 {
		res = RunSharded(sc, shards)
	} else {
		res = Run(sc)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("event stream: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil)), w.Count(), res
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

// goldenVariant pins one variant on one kernel: the SHA-256 of the JSONL
// event stream and of resultTable, which covers the Result fields the
// stream does not carry (usage integrals, consumed CPU, decisions,
// final weights, meter cost, event count).
type goldenVariant struct {
	variant Variant
	shards  int // 0 = sequential kernel
	stream  string
	table   string
}

// goldenMatrix is every Variant on both kernels: dd, a 300-s day, seed
// 7, with SnapshotPeriod set so the snapshot tickers are wired too.
var goldenMatrix = []goldenVariant{
	{VariantAmoeba, 0,
		"d1f17034cac76ab675a7faacd9b3d1e109b4d9110ceef3e3fab98ed3147a0fe8",
		"22ac9b4c99ccd2c2e6f10ba52d342f4ade8886d195ce4d651f5ec7808481f2e8"},
	{VariantAmoebaNoM, 0,
		"611528bc5a05eaf150622292ca69a9ff6bae34acd7780d542bf0c19ab8906887",
		"22fa8c9b1c947451ee9109ad3a614211fac20f57cf574df22df277a577cde08f"},
	{VariantAmoebaNoP, 0,
		"e9cbd22e84ce83f392e4c154aec99a3831eb33d9612b6436cd99020178b83b20",
		"0c3a5550ee14b301a3fa34162a515fd7540517f246b6ab38feae4444387f08d1"},
	{VariantNameko, 0,
		"6ac4dfac7237f6785a3567fcd547b0114d05e942690a811b35aabe3b24450519",
		"d8278309aa42bbbe71cd994a726b560a704c2388279322a3178953f46aa2d578"},
	{VariantOpenWhisk, 0,
		"573985ca31f2dfe406d147e34397e5db42e50b15e659c9b55dc0c11ef21a9865",
		"0e8a09d6635155d7ca2845a842d8f93daf594ac0606752d015574d5870bcbcad"},
	{VariantAutoscale, 0,
		"3e457298b58a1d88ccee8f184da3c0521d31f011e5da52054a08c5c503675d55",
		"3793fcdb1c14b831d1b3c20d12847e6f28413403b71d601b518ea2c65704e0ab"},
	{VariantAmoeba, 2,
		"8ce832ead93ba191504d4400fc84d58ad007fe57affafebec16b135e44bfe3f6",
		"6d322de7b15586215da90d7ed183dd7f4f88de577f22d997a4107cbdfdae8e34"},
	{VariantAmoebaNoM, 2,
		"2fdb4273fb3824721f3bc8e2f2d9fb7aa17012a27a62deb0f9cd830a4a647ed3",
		"8db5422f6ad0071ecd41bce435284ab3063bba79edbe55ffbb20125842011b05"},
	{VariantAmoebaNoP, 2,
		"dc9f75b56402f0359197e8f821f49f4e744707349f91dfbd7e4b6b3d03a919f9",
		"778a3b03875f9dc853ac2befa53f7cdda75ed37d601771db53236c1787618041"},
	{VariantNameko, 2,
		"d369ea3234155d0fa069914f2cb3e92bc1babe6fddae21160208221d54547620",
		"e3aee55610e76c2fe50f2bbf6f6e2459c789ab9b8c321f4c21853d25719e650e"},
	{VariantOpenWhisk, 2,
		"b157b161830e067b5556c3a29564e6df62427c8db7724c3bfe5e95a4d3219bfc",
		"4bc50af309a1a54e442a06029a6153d17ac9b0206e0ab009e339f782f8c64e99"},
	{VariantAutoscale, 2,
		"6b53ea409642d74970b863cdbd259dfcaa09b4e22a49bfcfafe07541a5acd86a",
		"66f28541b8e097c74daf0726c6b1fa6b1138ee667bb439800c049f4bccb89907"},
}

// TestGoldenVariantMatrix pins the event stream and the result table of
// every variant on Run and on RunSharded(sc, 2). Wiring and collection
// changes that alter any construction order, RNG split or result field
// change a digest; only an explicit, recorded re-baseline may edit the
// table.
func TestGoldenVariantMatrix(t *testing.T) {
	skipIfRace(t)
	if len(goldenMatrix) != 2*len(variantNames) {
		t.Fatalf("golden matrix has %d rows, want every variant on both kernels", len(goldenMatrix))
	}
	for _, g := range goldenMatrix {
		t.Run(fmt.Sprintf("%v-shards%d", g.variant, g.shards), func(t *testing.T) {
			sc := goldenScenario(workload.DD(), g.variant, 300, 7)
			sc.SnapshotPeriod = 5
			stream, n, res := runDigest(t, sc, g.shards)
			if n == 0 {
				t.Fatal("empty event stream")
			}
			sum := sha256.Sum256([]byte(resultTable(res)))
			table := hex.EncodeToString(sum[:])
			if stream != g.stream {
				t.Errorf("event stream sha256 = %s (%d events), want %s", stream, n, g.stream)
			}
			if table != g.table {
				t.Errorf("result table sha256 = %s, want %s\n%s", table, g.table, resultTable(res))
			}
		})
	}
}
