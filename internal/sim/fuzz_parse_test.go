package sim

import "testing"

// The enum name tables share one contract: the empty string and each
// canonical name parse to the right value with a nil error, formatting
// that value gives the name back, and every other input is rejected
// with a non-nil error (never a panic, never a silently defaulted
// value). The fuzz targets below, one per table, pin that contract
// over arbitrary inputs; the seed corpus covers every valid name plus
// representative junk (case variants, whitespace, prefixes).

// fuzzSeedInputs is the shared seed corpus: all canonical names of all
// seven tables plus near-misses that must be rejected.
var fuzzSeedInputs = []string{
	"", "none", "replicas", "drift", "deterministic", "racy",
	"resample", "escalate", "origin", "crash", "regional",
	"capacity", "arrival", "uniform", "two-tier", "power-law",
	"None", "CRASH", " crash", "crash ", "crashx", "regiona",
	"tiles", "tile", "det", "\x00", "日本語",
	"Capacity", "arrivals", " uniform", "two-tier ", "powerlaw", "two_tier",
	"scalar", "links", "streaming", "Links", "stream",
}

func fuzzEnum[T ~int](f *testing.F, e enumNames[T], valid map[string]T) {
	for _, s := range fuzzSeedInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := e.parse(s)
		want, ok := valid[s]
		if ok {
			if err != nil {
				t.Fatalf("parse(%q) rejected a canonical name: %v", s, err)
			}
			if got != want {
				t.Fatalf("parse(%q) = %v, want %v", s, got, want)
			}
			if s != "" && e.format(got) != s {
				t.Fatalf("format(parse(%q)) = %q", s, e.format(got))
			}
			return
		}
		if err == nil {
			t.Fatalf("parse(%q) accepted junk as %v", s, got)
		}
	})
}

func FuzzParseChurn(f *testing.F) {
	fuzzEnum(f, churnNames, map[string]ChurnMode{
		"": ChurnNone, "none": ChurnNone, "replicas": ChurnReplicas, "drift": ChurnDrift,
	})
}

func FuzzParseShard(f *testing.F) {
	fuzzEnum(f, shardNames, map[string]ShardMode{
		"": ShardDeterministic, "deterministic": ShardDeterministic, "racy": ShardRacy,
	})
}

func FuzzParseMiss(f *testing.F) {
	fuzzEnum(f, missNames, map[string]MissPolicy{
		"": MissResample, "resample": MissResample, "escalate": MissEscalate, "origin": MissOrigin,
	})
}

func FuzzParseFaults(f *testing.F) {
	fuzzEnum(f, faultsNames, map[string]FaultsMode{
		"": FaultsNone, "none": FaultsNone, "crash": FaultsCrash, "regional": FaultsRegional,
	})
}

func FuzzParseHetero(f *testing.F) {
	fuzzEnum(f, heteroNames, map[string]HeteroMode{
		"": HeteroNone, "none": HeteroNone, "capacity": HeteroCapacity, "arrival": HeteroArrival,
	})
}

func FuzzParseProfile(f *testing.F) {
	fuzzEnum(f, profileNames, map[string]CacheProfile{
		"": ProfileUniform, "uniform": ProfileUniform, "two-tier": ProfileTwoTier, "power-law": ProfilePowerLaw,
	})
}

func FuzzParseMetricsMode(f *testing.F) {
	fuzzEnum(f, metricsNames, map[string]MetricsMode{
		"": MetricsScalar, "scalar": MetricsScalar, "links": MetricsLinks, "streaming": MetricsStreaming,
	})
}
