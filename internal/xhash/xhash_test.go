package xhash

import (
	"hash/fnv"
	"testing"

	"napel/internal/xrand"
)

// pattern returns n bytes that differ along the whole buffer, so that a
// read from the wrong offset changes a golden value.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8 + 7)
	}
	return b
}

// golden holds Sum64 of pattern(64)[:n] for n = 0 to 64: every branch
// of Sum64 (empty, under 4, under 8, under 16 bytes, the 16-byte loop
// and the 48-byte lanes) and every remainder length after them.
var golden = [65]uint64{
	0xa0761d6478bd642f, 0xf9316a734c1b517b, 0x954f1088af2ce27c, 0xc61adb94df20b8d1,
	0x5fa94c89c9251013, 0x121f4693c618f59a, 0xc1e0b8b44c920233, 0x8e0f8b265dc9313d,
	0x14d73c6b9cbeafef, 0x51c5f4334eb04854, 0x391640393d08bb57, 0xadb5813d489126b5,
	0x6387f4262f6e6438, 0x15715635680cbf46, 0x20c36636534a6416, 0xd9ea796a45c60e82,
	0x4aeaf49132b1a33c, 0x7805135f66b9dd21, 0x9f10f92db13150fe, 0x0719a055419fd5e4,
	0x8b22a4ec504af383, 0x8513db341760ed35, 0xee99792beef78ed4, 0x094d129a9f0e7ff1,
	0x0227ba0b22051636, 0xf66b695c2bb09d4d, 0x5d890a09eeb83310, 0x01d18242831da93f,
	0x84f5099a62eb020f, 0xb830916cf88e1615, 0x323e239becae7edf, 0x8c6db3dba36cbb1c,
	0xf3edfe2d250fed3b, 0x45a41bff4d9c8e1c, 0x4a7a1c926f765880, 0x168a59b6b234de44,
	0x42d060939ea27600, 0x2367df8e142d63e8, 0x43c961cc547756d8, 0xcf788eb5fdcc025e,
	0x401da1c02788d7c7, 0xcc1594413575aa3a, 0x3320a23661835f5f, 0x6cfe28a1179f4fc1,
	0x697b09d815b7c8af, 0x0f349925d5a291f9, 0x34317e605424abdb, 0x592a2de820c9ff09,
	0x10929c9a616c29cb, 0x0b36a282170ef3cf, 0x0386e7bf0ba6f0ad, 0x15456072d74d3b19,
	0x684a312e76dc0232, 0xfb0db53933ced5e2, 0x10cf9f99b3221fca, 0xbda05f8b5bc52bed,
	0xb3c2598b26acc2f1, 0x76723b229f52ce31, 0x15b19c4127e283cc, 0x4262d32386327158,
	0x83406b37a500cdad, 0x0a103ad174f37661, 0xaedb5330bd728ede, 0x66364356ca7dc2d3,
	0x4308d534a392c103,
}

// TestSum64Golden pins Sum64 on prefixes of a pattern of every length up
// to 64 bytes and on a 1 MiB buffer: content versions and route keys
// must not move between builds.
func TestSum64Golden(t *testing.T) {
	in := pattern(64)
	for n := range golden {
		if got := Sum64(in[:n]); got != golden[n] {
			t.Errorf("Sum64 of %d pattern bytes = %#016x, want %#016x", n, got, golden[n])
		}
	}
	const want1MiB = 0x1b04910cddb71746
	if got := Sum64(pattern(1 << 20)); got != want1MiB {
		t.Errorf("Sum64 of 1 MiB = %#016x, want %#016x", got, uint64(want1MiB))
	}
}

// TestSum64Avalanche: flipping one bit of a random 64-byte input flips
// each output bit about half the time.
func TestSum64Avalanche(t *testing.T) {
	rng := xrand.New(1)
	var flips [64]int
	const inputs = 40
	in := make([]byte, 64)
	for range inputs {
		for i := range in {
			in[i] = byte(rng.Uint64())
		}
		h := Sum64(in)
		for bit := range 8 * len(in) {
			in[bit/8] ^= 1 << (bit % 8)
			d := h ^ Sum64(in)
			in[bit/8] ^= 1 << (bit % 8)
			for o := range flips {
				flips[o] += int(d >> o & 1)
			}
		}
	}
	trials := float64(inputs * 8 * len(in))
	for o, n := range flips {
		if p := float64(n) / trials; p < 0.45 || p > 0.55 {
			t.Errorf("output bit %d flips with frequency %.4f, want within [0.45, 0.55]", o, p)
		}
	}
}

// TestSum64NoCollisions: 10⁵ distinct random inputs of lengths 0 to 200
// hash to distinct values.
func TestSum64NoCollisions(t *testing.T) {
	rng := xrand.New(2)
	seen := make(map[uint64]string, 100_000)
	inputs := make(map[string]bool, 100_000)
	for len(inputs) < 100_000 {
		b := make([]byte, rng.Intn(201))
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		if inputs[string(b)] {
			continue
		}
		inputs[string(b)] = true
		h := Sum64(b)
		if prev, ok := seen[h]; ok {
			t.Fatalf("%q and %q both hash to %#016x", prev, b, h)
		}
		seen[h] = string(b)
	}
}

// TestSum64ZeroRuns: runs of zero bytes of every length up to 300 hash
// apart, so the length, not only the content, enters the hash.
func TestSum64ZeroRuns(t *testing.T) {
	zeros := make([]byte, 300)
	seen := map[uint64]int{}
	for n := 0; n <= len(zeros); n++ {
		h := Sum64(zeros[:n])
		if m, ok := seen[h]; ok {
			t.Fatalf("%d and %d zero bytes both hash to %#016x", m, n, h)
		}
		seen[h] = n
	}
}

// TestSum64ReadsEveryByte: changing any one byte of inputs up to 130
// bytes long changes the hash, whichever branch and lane reads it.
func TestSum64ReadsEveryByte(t *testing.T) {
	for n := 1; n <= 130; n++ {
		in := pattern(n)
		h := Sum64(in)
		for i := range in {
			in[i]++
			if Sum64(in) == h {
				t.Fatalf("changing byte %d of %d leaves the hash", i, n)
			}
			in[i]--
		}
	}
}

var sink uint64

// BenchmarkSum64 hashes a buffer the size of a trained model file with
// Sum64 and, for comparison, with FNV-64a.
func BenchmarkSum64(b *testing.B) {
	data := pattern(1_219_516)
	b.Run("xhash", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for range b.N {
			sink += Sum64(data)
		}
	})
	b.Run("fnv64a", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for range b.N {
			h := fnv.New64a()
			h.Write(data)
			sink += h.Sum64()
		}
	})
}
