// Package bench defines the benchmark interface used by the
// reproduction. Each benchmark (Table 1 of the paper) supplies an IR
// program with its input baked into data memory, plus a checker that
// validates the program's output region against an independent pure-Go
// reference implementation of the same algorithm. Together with the
// compiler pipeline's own interpreter-vs-simulator equivalence checks,
// every measured run is verified twice: algorithmic correctness (IR vs
// Go) and compilation correctness (simulator vs interpreter).
package bench

import (
	"fmt"

	"lpbuf/internal/ir"
)

// Benchmark is one workload.
type Benchmark struct {
	// Name matches the paper's Table 1 naming (e.g. "adpcmenc").
	Name string
	// Description of the workload and its input.
	Description string
	// Build constructs the IR program (deterministic).
	Build func() *ir.Program
	// Check validates the final data memory against the pure-Go
	// reference output.
	Check func(mem []byte) error
}

// Rand is a tiny deterministic PRNG (xorshift64*) used for input
// synthesis so benchmark inputs are stable across runs and platforms.
type Rand struct{ s uint64 }

// NewRand seeds a generator (seed must be nonzero).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	return int(r.Next() % uint64(n))
}

// Speech synthesizes a speech-like 16-bit signal: a few slowly-varying
// "formant" oscillators plus noise, integer-only.
func Speech(n int, seed uint64) []int16 {
	rng := NewRand(seed)
	out := make([]int16, n)
	var p1, p2, p3 int64
	f1, f2, f3 := int64(211), int64(547), int64(1021)
	for i := 0; i < n; i++ {
		p1 += f1
		p2 += f2
		p3 += f3
		// Triangle waves (integer "sines").
		tri := func(p int64) int64 {
			x := p % 4096
			if x < 2048 {
				return x - 1024
			}
			return 3072 - x
		}
		v := 6*tri(p1) + 4*tri(p2) + 2*tri(p3) + int64(rng.Intn(257)-128)
		// Slow amplitude envelope.
		env := 4 + tri(int64(i)*13)/512
		v = v * env / 8
		if v > 32767 {
			v = 32767
		}
		if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
		// Occasionally shift formants (telephone speech is nonstationary).
		if i%640 == 639 {
			f1 = 150 + int64(rng.Intn(200))
			f2 = 400 + int64(rng.Intn(400))
			f3 = 900 + int64(rng.Intn(500))
		}
	}
	return out
}

// Image synthesizes an 8-bit grayscale image with smooth gradients,
// edges and texture (integer-only), width*height pixels row-major.
func Image(w, h int, seed uint64) []byte {
	rng := NewRand(seed)
	img := make([]byte, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := (x*255)/w/2 + (y*255)/h/3
			// Blocky objects with edges.
			if (x/17+y/23)%2 == 0 {
				v += 60
			}
			// Texture noise.
			v += rng.Intn(17) - 8
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img[y*w+x] = byte(v)
		}
	}
	return img
}

// CmpWords compares a word region of memory against expected values.
func CmpWords(mem []byte, off int64, want []int32, what string) error {
	for i, w := range want {
		o := off + int64(4*i)
		got := int32(uint32(mem[o]) | uint32(mem[o+1])<<8 |
			uint32(mem[o+2])<<16 | uint32(mem[o+3])<<24)
		if got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}

// CmpHalf compares a 16-bit region of memory against expected values.
func CmpHalf(mem []byte, off int64, want []int16, what string) error {
	for i, w := range want {
		o := off + int64(2*i)
		got := int16(uint16(mem[o]) | uint16(mem[o+1])<<8)
		if got != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, got, w)
		}
	}
	return nil
}

// CmpBytes compares a byte region of memory against expected values.
func CmpBytes(mem []byte, off int64, want []byte, what string) error {
	for i, w := range want {
		if mem[off+int64(i)] != w {
			return fmt.Errorf("%s[%d] = %d, want %d", what, i, mem[off+int64(i)], w)
		}
	}
	return nil
}

// H2B packs int16s little-endian.
func H2B(vals []int16) []byte {
	b := make([]byte, 2*len(vals))
	for i, v := range vals {
		b[2*i] = byte(v)
		b[2*i+1] = byte(uint16(v) >> 8)
	}
	return b
}
