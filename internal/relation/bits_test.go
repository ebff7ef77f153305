package relation

import (
	"math/rand"
	"testing"
)

// decodeBitsRef is the one-bit-at-a-time Boolean block decode that
// decodeBits must match.
func decodeBitsRef(dst []bool, src []byte, bitBase int) []bool {
	for i := range dst {
		bit := bitBase + i
		dst[i] = src[bit>>3]&(1<<uint(bit&7)) != 0
	}
	return dst
}

// TestDecodeBitsMatchesBitLoop decodes random bytes at every bit offset
// 0-7 and every length 0-300 (aligned and unaligned heads, whole bytes,
// short tails) and requires the bit loop's output, with nothing written
// past len(dst).
func TestDecodeBitsMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 40)
	rng.Read(src)
	want := make([]bool, 300)
	got := make([]bool, 301)
	for bitBase := 0; bitBase < 8; bitBase++ {
		for n := 0; n <= 300; n++ {
			for i := range got {
				got[i] = i%3 == 0
			}
			sentinel := got[n]
			decodeBits(got[:n], src[:(bitBase+n+7)/8], bitBase)
			decodeBitsRef(want[:n], src, bitBase)
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					t.Fatalf("bitBase %d, n %d: bit %d = %v, want %v", bitBase, n, i, got[i], want[i])
				}
			}
			if got[n] != sentinel {
				t.Fatalf("bitBase %d, n %d: wrote past the destination", bitBase, n)
			}
		}
	}
}

// BenchmarkDecodeBits decodes one default batch of Boolean values,
// byte-aligned ("aligned") and starting mid-byte ("offset3").
func BenchmarkDecodeBits(b *testing.B) {
	src := make([]byte, DefaultBatchSize/8+1)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]bool, DefaultBatchSize)
	for _, c := range []struct {
		name    string
		bitBase int
	}{{"aligned", 0}, {"offset3", 3}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				decodeBits(dst, src, c.bitBase)
			}
		})
	}
}
