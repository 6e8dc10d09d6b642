package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedDigests are the sha256 of resultString for the full-scale
// default-config collection (225 days) at two seeds. They pin the run's
// output across refactors and performance work that must not change a
// single seeded stream: any change here is a change to the study's data,
// and needs a recorded reason, never a silent re-pin.
var pinnedDigests = map[int64]string{
	3:        "d9edbada19cf1afc73bbc79370541fee23eef402ccdfc7f70125520b1a72bf8a",
	20160604: "d0f24a9cd9a1cbce8cc1cece42d39e0175566940642c538daeae8142377b0066",
}

// TestPinnedResultDigest runs the full collection at default scale in
// both run modes and compares each result's digest to the pinned value;
// the materialized and streaming runs share one digest per seed.
func TestPinnedResultDigest(t *testing.T) {
	for _, seed := range []int64{3, 20160604} {
		for _, streaming := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Streaming = streaming
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Days != 225 {
				t.Fatalf("seed %d: default run covers %d days, want 225", seed, res.Days)
			}
			sum := sha256.Sum256([]byte(resultString(res)))
			if got, want := hex.EncodeToString(sum[:]), pinnedDigests[seed]; got != want {
				t.Errorf("seed %d streaming=%v: resultString sha256 = %s, pinned %s", seed, streaming, got, want)
			}
		}
	}
}
