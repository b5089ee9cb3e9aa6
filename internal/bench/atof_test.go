package bench

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the grammar Cursor.Float keeps, written the other way:
// RFC 8259's number, anchored at both ends.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// checkNumber holds Cursor.Float to strconv.ParseFloat on a literal that
// is a JSON number: it takes all of it unless ParseFloat reports an
// error (the value is out of float64's range), and returns ParseFloat's
// bits, the sign of zero included. It reports whether lit was taken.
func checkNumber(t testing.TB, lit string) bool {
	want, err := strconv.ParseFloat(lit, 64)
	c := NewCursor([]byte(lit))
	got := c.Float()
	if c.End() != (err == nil) {
		t.Fatalf("Float(%q) taken: %v; ParseFloat: %v", lit, c.End(), err)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Float(%q) = %v (%#x), ParseFloat gives %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return err == nil
}

// checkFloat is checkNumber for any bytes: what is not a JSON number is
// not taken whole, and what is reads the same in front of a separator.
func checkFloat(t testing.TB, lit string) {
	alone := NewCursor([]byte(lit))
	got := alone.Float()
	if !jsonNumber.MatchString(lit) {
		if alone.End() {
			t.Fatalf("Float(%q) took what is not a JSON number", lit)
		}
		return
	}
	if !checkNumber(t, lit) {
		return
	}
	next := NewCursor([]byte(lit + ",1"))
	if f := next.Float(); math.Float64bits(f) != math.Float64bits(got) || !next.Try(",1") || !next.End() {
		t.Fatalf("Float(%q) before a comma = %v, stopped at %d; want %v and the comma next", lit, f, next.i, got)
	}
}

// floatSeeds are the literals where the walk, the two conversions and
// the hand-over to ParseFloat each change their mind.
var floatSeeds = []string{
	"0", "-0", "-0.0e-0", "0.0", "0e0", "0e400", "-0e-400", "1", "-1", "1E5", "1e+5", "1e-05", "1.5", "-1.5e3",
	"01", "-01", "00", "-", "", "+1", "1.", ".5", "1.e5", "1e", "1e+", "1e-", "1.5.5", "--1", "0x10", "0x1p-2", "1_000", "Inf", "NaN",
	"1e400", "-1e400", "1e-400", "1e99999999999999999999", "1e-99999999999999999999", "0e99999999999999999999",
	"4.9e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
	// Around 2^53, where Clinger's path ends, and a half-way case above it.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993.0", "9007199254740993.00000000000000000001",
	// 19 digits kept; the 20th and later dropped, as zeros and not.
	"1234567890123456789", "12345678901234567890", "12345678901234567891", "123456789012345678900", "100000000000000000000",
	"123456789012345678901234567890", "1234567890123456789.000", "1234567890123456789.001", "0.1234567890123456789012",
	"18446744073709551615", "18446744073709551616", "9999999999999999999", "99999999999999999999",
	"0." + strings.Repeat("0", 40) + "1234", "0." + strings.Repeat("0", 400) + "1", "1" + strings.Repeat("0", 400),
	// Exponents at both edges of the powers-of-ten table, and one past.
	"1e63", "1e64", "1e65", "1e-63", "1e-64", "1e-65", "1234567890123456789e64", "1234567890123456789e65", "1.234567890123456789e-46", "1.234567890123456789e-47",
	// Clinger's edges.
	"1e22", "1e23", "1e-22", "1e-23", "9007199254740991e22", "9007199254740991e-22", "0.30000000000000004", "0.1", "3.141592653589793",
}

func TestCursorFloatSeeds(t *testing.T) {
	for _, lit := range floatSeeds {
		checkFloat(t, lit)
	}
}

// TestCursorFloatMatchesParseFloat is the differential test: a million
// seeded float64s — any bit pattern, ordinary magnitudes, integers past
// 2^53, the unit interval — each written three ways: as the wire writes
// it (AppendFloat's shortest form), and as 'e' and 'f' at a random
// precision, which yields literals shorter than, as long as and longer
// than the 19 digits Float keeps.
func TestCursorFloatMatchesParseFloat(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	r := rand.New(rand.NewSource(42))
	var buf []byte
	for i := 0; i < n; i++ {
		var f float64
		switch i % 4 {
		case 0:
			f = math.Float64frombits(r.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
		case 1:
			f = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		case 2:
			f = float64(r.Uint64() >> uint(r.Intn(20)))
			if r.Intn(2) == 0 {
				f = -f
			}
		case 3:
			f = r.Float64()
		}
		buf, _ = AppendFloat(buf[:0], f)
		checkNumber(t, string(buf))
		checkNumber(t, strconv.FormatFloat(f, 'e', r.Intn(26), 64))
		if math.Abs(f) < 1e60 { // an 'f' form of 1e300 is 300 digits of nothing new
			checkNumber(t, strconv.FormatFloat(f, 'f', r.Intn(30), 64))
		}
	}
}

// FuzzCursorFloat asserts, for any bytes: Cursor.Float takes them whole
// exactly when they are a JSON number that strconv.ParseFloat reads
// without error, and then returns ParseFloat's bits.
func FuzzCursorFloat(f *testing.F) {
	for _, lit := range floatSeeds {
		f.Add(lit)
	}
	f.Fuzz(func(t *testing.T, lit string) { checkFloat(t, lit) })
}

// TestPowersOfTen recomputes the table: row e holds the top 128 bits of
// 10^e, rounded down, low word first, and the binary exponent
// eiselLemire64 implies for it (217706·e>>16) is ⌊log2 10^e⌋.
func TestPowersOfTen(t *testing.T) {
	if len(powersOfTen) != powersOfTenMaxExp10-powersOfTenMinExp10+1 {
		t.Fatalf("%d rows for exponents %d to %d", len(powersOfTen), powersOfTenMinExp10, powersOfTenMaxExp10)
	}
	ten, mask := big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	for e := powersOfTenMinExp10; e <= powersOfTenMaxExp10; e++ {
		// m·2^-shift = 10^e, with shift large enough that m has more than
		// 128 bits to take the top of.
		m, shift := new(big.Int), 0
		if e >= 0 {
			m.Exp(ten, big.NewInt(int64(e)), nil)
			if short := 128 - m.BitLen(); short > 0 {
				shift = short
				m.Lsh(m, uint(short))
			}
		} else {
			den := new(big.Int).Exp(ten, big.NewInt(int64(-e)), nil)
			shift = den.BitLen() + 128
			m.Lsh(big.NewInt(1), uint(shift)).Quo(m, den)
		}
		log2 := m.BitLen() - 1 - shift
		m.Rsh(m, uint(m.BitLen()-128))
		lo := new(big.Int).And(m, mask).Uint64()
		hi := m.Rsh(m, 64).Uint64()
		if row := powersOfTen[e-powersOfTenMinExp10]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: table has {%#016x, %#016x}, arithmetic gives {%#016x, %#016x}", e, row[0], row[1], lo, hi)
		}
		if got := 217706 * e >> 16; got != log2 {
			t.Errorf("1e%d: 217706*e>>16 = %d, floor(log2) = %d", e, got, log2)
		}
	}
}

// TestCursorFloatWordSteps holds the eight-digit step of Cursor.Float's
// fraction loop to strconv.ParseFloat at its edges: every literal alone
// (so it ends at the end of the line) and before a comma. Dropping the
// step's man < 1e11 guard fails "guard/9999.9999999999999999" among
// others: the mantissa crosses 1e11 inside the fraction's first word, and
// a second step overflows it.
func TestCursorFloatWordSteps(t *testing.T) {
	const ds = "1234567890123456789012345678901234567890"
	var cases [][2]string // name, literal
	add := func(name, lit string) { cases = append(cases, [2]string{name, lit}) }
	for _, n := range []int{7, 8, 9, 15, 16, 17, 19, 20, 25} {
		add(fmt.Sprintf("run%d", n), "0."+ds[:n])
		add(fmt.Sprintf("run%d/int", n), "-42."+ds[:n])
		add(fmt.Sprintf("run%d/exp", n), "9."+ds[len(ds)-n:]+"e-7")
	}
	// A literal whose last word ends it exactly: at the end of the line
	// alone, before a separator in checkFloat's second reading.
	add("boundary/8", "0.87654321")
	add("boundary/16", "0.8765432187654321")
	add("boundary/24", "0.876543218765432187654321")
	// Zeros ahead of the first significant digit, across a word: they
	// only scale, so the guard must not count them.
	add("zeros/12", "0.0000000000001234567890123456789")
	add("zeros/16", "0.00000000000000001")
	add("zeros/8", "0.0000000012345678901234567890")
	add("zeros/7", "-0.0000000123456789012345678901234")
	add("zeros/all", "0.0000000000000000000000000")
	// The integer part sets how much room the mantissa has left.
	add("guard/1234.5678901234567890", "1234.5678901234567890")
	add("guard/9999.9999999999999999", "9999.9999999999999999")
	add("guard/999.9999999999999999", "999.9999999999999999")
	add("guard/int11", "12345678901.2345678912345678")
	add("guard/int12", "123456789012.12345678")
	add("guard/int19", "1234567890123456789.12345678")
	for _, c := range cases {
		t.Run(c[0], func(t *testing.T) { checkFloat(t, c[1]) })
	}

	// A byte just outside '0'..'9' at each position of the fraction's first
	// two words ends the literal there: the step must see it, the byte
	// loop take the digits before it, and a fraction of no digits fail.
	for _, bad := range []byte{'/', ':', 0x80, 0xFF} {
		for p := 0; p < 16; p++ {
			lit := "0." + ds[:p] + string([]byte{bad}) + ds[p:20]
			c := NewCursor([]byte(lit))
			got := c.Float()
			if p == 0 {
				if !c.bad {
					t.Errorf("Float(%q) took a fraction of no digits", lit)
				}
				continue
			}
			want, _ := strconv.ParseFloat(lit[:2+p], 64)
			if c.bad || c.i != 2+p || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Float(%q) = %v, stopped at %d; want %v, stopped at %d", lit, got, c.i, want, 2+p)
			}
		}
	}
}
