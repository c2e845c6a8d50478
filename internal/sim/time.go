package sim

import "time"

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time s.
func (t Time) Sub(s Time) time.Duration { return time.Duration(t - s) }

// Duration converts t to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t exactly like time.Duration.String ("1.5µs", "2m3.004s"),
// but through a local formatter: one string allocation, no conversion through
// the time package. Trace lines format a Time on every event, so this is on
// the tracing hot path. timeStringEquivalence in time_test.go pins the
// output byte-identical to the stdlib across the full value range, and the
// alloc test pins String to 1 alloc.
func (t Time) String() string {
	var buf [32]byte
	return string(t.appendTo(buf[:0]))
}

func (t Time) appendTo(dst []byte) []byte {
	// Largest formatted value is -2562047h47m16.854775808s: 24 bytes.
	var arr [32]byte
	w := len(arr)
	u := uint64(t)
	neg := t < 0
	if neg {
		u = -u
	}
	if u < uint64(time.Second) {
		// Sub-second: pick ns/µs/ms so the mantissa stays small.
		var prec int
		w--
		arr[w] = 's'
		w--
		switch {
		case u == 0:
			return append(dst, '0', 's')
		case u < uint64(time.Microsecond):
			prec = 0
			arr[w] = 'n'
		case u < uint64(time.Millisecond):
			prec = 3
			// U+00B5 'µ' is two bytes in UTF-8.
			w--
			copy(arr[w:], "µ")
		default:
			prec = 6
			arr[w] = 'm'
		}
		w, u = fmtFrac(arr[:w], u, prec)
		w = fmtInt(arr[:w], u)
	} else {
		w--
		arr[w] = 's'
		w, u = fmtFrac(arr[:w], u, 9)
		w = fmtInt(arr[:w], u%60) // seconds
		u /= 60
		if u > 0 {
			w--
			arr[w] = 'm'
			w = fmtInt(arr[:w], u%60) // minutes
			u /= 60
			if u > 0 {
				w--
				arr[w] = 'h'
				w = fmtInt(arr[:w], u) // hours (days vary in length; stop here)
			}
		}
	}
	if neg {
		w--
		arr[w] = '-'
	}
	return append(dst, arr[w:]...)
}

// fmtFrac formats the fraction of v/10**prec (e.g. ".12345") into the tail of
// buf, omitting trailing zeros; it omits the decimal point too when the
// fraction is all zeros. It returns the index where the output begins and the
// value v/10**prec.
func fmtFrac(buf []byte, v uint64, prec int) (nw int, nv uint64) {
	w := len(buf)
	printing := false
	for i := 0; i < prec; i++ {
		digit := v % 10
		printing = printing || digit != 0
		if printing {
			w--
			buf[w] = byte(digit) + '0'
		}
		v /= 10
	}
	if printing {
		w--
		buf[w] = '.'
	}
	return w, v
}

// fmtInt formats v into the tail of buf and returns the index where the
// output begins.
func fmtInt(buf []byte, v uint64) int {
	w := len(buf)
	if v == 0 {
		w--
		buf[w] = '0'
		return w
	}
	for v > 0 {
		w--
		buf[w] = byte(v%10) + '0'
		v /= 10
	}
	return w
}
