// Package xhash is a fast, seedless 64-bit hash of byte strings, for
// identities that every process must compute alike: napel-serve's model
// content versions and napel-gate's route keys.
//
// Sum64 follows wyhash's structure, as Go's runtime fallback hash does:
// it reads the input eight bytes at a time, runs each 48-byte block
// through three independent 16-byte lanes, each step one 64×64→128-bit
// multiply whose halves are folded together, and mixes the length in at
// the end. Its constants are fixed, so the same bytes hash to the same
// value in every process, run and machine, unlike hash/maphash, whose
// seed is random per process. It uses neither assembly nor unsafe.
//
// It is not a cryptographic hash: collisions can be constructed. The
// model store addresses blobs by sha256 for that reason.
package xhash

import (
	"encoding/binary"
	"math/bits"
)

// The constants of wyhash (final version 3), as Go's runtime uses them.
const (
	m1 = 0xa0761d6478bd642f
	m2 = 0xe7037ed1a0b428db
	m3 = 0x8ebc6af09c88c6e3
	m4 = 0x589965cc75374cc3
	m5 = 0x1d8e4e27c47d124f
)

// mix multiplies a and b into 128 bits and folds the halves together.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func le32(b []byte) uint64 { return uint64(binary.LittleEndian.Uint32(b)) }

// Sum64 returns the hash of b.
func Sum64(b []byte) uint64 {
	n := len(b)
	seed := uint64(m1)
	var x, y uint64
	switch {
	case n == 0:
		return seed
	case n < 4:
		x = uint64(b[0]) | uint64(b[n>>1])<<8 | uint64(b[n-1])<<16
	case n <= 8:
		x, y = le32(b), le32(b[n-4:])
	case n <= 16:
		x, y = le64(b), le64(b[n-8:])
	default:
		p := b
		if len(p) > 48 {
			seed1, seed2 := seed, seed
			for len(p) > 48 {
				q := p[:48]
				seed = mix(le64(q)^m2, le64(q[8:])^seed)
				seed1 = mix(le64(q[16:])^m3, le64(q[24:])^seed1)
				seed2 = mix(le64(q[32:])^m4, le64(q[40:])^seed2)
				p = p[48:]
			}
			seed ^= seed1 ^ seed2
		}
		for len(p) > 16 {
			seed = mix(le64(p)^m2, le64(p[8:])^seed)
			p = p[16:]
		}
		// 1 to 16 bytes are left; the last 16 of the input cover them.
		x, y = le64(b[n-16:]), le64(b[n-8:])
	}
	return mix(m5^uint64(n), mix(x^m2, y^seed))
}
