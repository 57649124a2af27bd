package nbhd

import (
	"context"
	"testing"

	"hidinglcp/internal/decoders"
	"hidinglcp/internal/obs"
)

// BenchmarkBuildShardedObs pins the observability overhead budget from
// ISSUE 4: the instrumented build must stay within 2% of the bare build.
// Compare with
//
//	go test ./internal/nbhd -bench BuildShardedObs -count 10 | benchstat
//
// The instrumentation is designed for this: per-builder tallies are plain
// int64s harvested after the worker barrier, and the only additions on the
// per-instance path are nil-receiver method calls.
func BenchmarkBuildShardedObs(b *testing.B) {
	s := decoders.DegreeOne()
	fam := decoders.DegOneFamily(4)
	alpha := decoders.DegOneAlphabet()

	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildShardedCtx(context.Background(), obs.Scope{}, s.Decoder, ShardedAllLabelings(alpha, fam...), 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := obs.NewScope()
			if _, err := BuildShardedCtx(context.Background(), sc, s.Decoder, ShardedAllLabelings(alpha, fam...), 16, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
