package sim

import "testing"

// The Parse* converters share one contract: the empty string and each
// canonical mode name round-trip to a valid mode with a nil error, and
// every other input is rejected with a non-nil error (never a panic,
// never a silently defaulted mode). The fuzz targets below pin that
// contract over arbitrary inputs; the seed corpus covers every valid
// name plus representative junk (case variants, whitespace, prefixes).

// fuzzSeedInputs is the shared seed corpus: all canonical names of all
// six parsers plus near-misses that must be rejected.
var fuzzSeedInputs = []string{
	"", "none", "replicas", "drift", "deterministic", "racy",
	"resample", "escalate", "origin", "crash", "regional",
	"capacity", "arrival", "uniform", "two-tier", "power-law",
	"None", "CRASH", " crash", "crash ", "crashx", "regiona",
	"tiles", "tile", "det", "\x00", "日本語",
	"Capacity", "arrivals", " uniform", "two-tier ", "powerlaw", "two_tier",
}

func fuzzParse[M comparable](f *testing.F, parse func(string) (M, error), valid map[string]M) {
	for _, s := range fuzzSeedInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parse(s)
		want, ok := valid[s]
		if ok {
			if err != nil {
				t.Fatalf("parse(%q) rejected a canonical name: %v", s, err)
			}
			if got != want {
				t.Fatalf("parse(%q) = %v, want %v", s, got, want)
			}
			return
		}
		if err == nil {
			t.Fatalf("parse(%q) accepted junk as %v", s, got)
		}
	})
}

func FuzzParseChurn(f *testing.F) {
	fuzzParse(f, ParseChurn, map[string]ChurnMode{
		"": ChurnNone, "none": ChurnNone, "replicas": ChurnReplicas, "drift": ChurnDrift,
	})
}

func FuzzParseShard(f *testing.F) {
	fuzzParse(f, ParseShard, map[string]ShardMode{
		"": ShardDeterministic, "deterministic": ShardDeterministic, "racy": ShardRacy,
	})
}

func FuzzParseMiss(f *testing.F) {
	fuzzParse(f, ParseMiss, map[string]MissPolicy{
		"": MissResample, "resample": MissResample, "escalate": MissEscalate, "origin": MissOrigin,
	})
}

func FuzzParseFaults(f *testing.F) {
	fuzzParse(f, ParseFaults, map[string]FaultsMode{
		"": FaultsNone, "none": FaultsNone, "crash": FaultsCrash, "regional": FaultsRegional,
	})
}

func FuzzParseHetero(f *testing.F) {
	fuzzParse(f, ParseHetero, map[string]HeteroMode{
		"": HeteroNone, "none": HeteroNone, "capacity": HeteroCapacity, "arrival": HeteroArrival,
	})
}

func FuzzParseProfile(f *testing.F) {
	fuzzParse(f, ParseProfile, map[string]CacheProfile{
		"": ProfileUniform, "uniform": ProfileUniform, "two-tier": ProfileTwoTier, "power-law": ProfilePowerLaw,
	})
}
