package runcache

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// AppendFeatures flattens v into feat as dotted lowercase key/value pairs:
// struct fields recurse with their lowercased names appended to prefix,
// scalars render as strings, and slices/arrays index as ".0", ".1", ….
// The walk accepts exactly the kinds the fingerprint canonicalizer
// (appendCanon) encodes and rejects the rest — maps, funcs, channels,
// interfaces — with an error naming the offending field, so a config type
// that fingerprints cleanly always feature-encodes cleanly and vice versa.
// The uopvet runcachesafe analyzer statically enforces the same kind set
// on the fingerprint roots, which therefore also guards this encoding.
//
// Feature values are exact for query purposes: integers in decimal, floats
// via the shortest round-trip form, booleans as "true"/"false". Two configs
// that fingerprint differently may still share a feature vector (features
// omit the version strings and run lengths unless the caller adds them) —
// features select sets of points, fingerprints identify single points.
//
// The pairs one call adds share a single string: the walk writes every key
// and value into one buffer, which is converted once, and feat grows at
// most once, so a call costs a handful of allocations however many
// fields v has.
func AppendFeatures(feat Features, prefix string, v any) (Features, error) {
	// Sized for a pipeline.Config (40 pairs, about 1 KB of keys and
	// values); a larger value moves the walk onto the heap.
	var keyArr [128]byte
	var bufArr [2048]byte
	var endArr [128]int
	buf, ends, err := appendLeaves(bufArr[:0], endArr[:0], append(keyArr[:0], prefix...), reflect.ValueOf(v))
	if err != nil {
		return nil, err
	}
	n := len(ends) / 2
	if n == 0 {
		return feat, nil
	}
	feat = slices.Grow(feat, n)
	s := string(buf)
	start := 0
	for i := 0; i < len(ends); i += 2 {
		k, e := ends[i], ends[i+1]
		feat = append(feat, KV{Key: s[start:k], Value: s[k:e]})
		start = e
	}
	return feat, nil
}

// NumericValue interprets one feature value as a number for regression
// purposes: booleans map to 0/1 (the same encoding a one-hot column would
// use), anything strconv.ParseFloat accepts parses exactly, and everything
// else — workload names, suite labels — is categorical (ok=false). The
// split is intrinsic to the value, not declared per key, so every numeric
// Config field the feature flattening emits is automatically a regression
// dimension.
func NumericValue(s string) (float64, bool) {
	switch s {
	case "true":
		return 1, true
	case "false":
		return 0, true
	}
	if s == "" || !floatStart[s[0]] {
		// ParseFloat would fail too, and allocate its *NumError doing so.
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// floatStart marks the bytes strconv.ParseFloat accepts first: digits,
// a sign, a point, and the i/n of inf, infinity and nan in either case.
var floatStart = [256]bool{
	'0': true, '1': true, '2': true, '3': true, '4': true,
	'5': true, '6': true, '7': true, '8': true, '9': true,
	'+': true, '-': true, '.': true, 'i': true, 'I': true, 'n': true, 'N': true,
}

// Numeric interprets the pair's value via NumericValue.
func (kv KV) Numeric() (float64, bool) { return NumericValue(kv.Value) }

// Canonical renders the feature vector as one comparable string: key=value
// pairs joined by the 0x1f unit separator (a byte no feature key or value
// produced by AppendFeatures contains). Two points with equal vectors —
// same keys, same values, same flattening order — canonicalize identically,
// which is the exact-match identity the surrogate's fast path keys on.
func (f Features) Canonical() string { return string(f.AppendCanonical(nil)) }

// AppendCanonical appends the Canonical form of f to b, so a caller that
// only compares or looks it up can render it into a buffer it owns.
func (f Features) AppendCanonical(b []byte) []byte {
	for i, kv := range f {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, kv.Key...)
		b = append(b, '=')
		b = append(b, kv.Value...)
	}
	return b
}

// appendLeaves flattens v under key: each leaf appends its key and its
// value back to back to buf and records where each of the two ends in
// ends, so AppendFeatures converts buf to a string once and slices every
// pair out of it. A value of a kind the fingerprint canonicalizer rejects
// stops the walk; its error is built there, from the key that is its path.
//
//uopvet:hotpath
func appendLeaves(buf []byte, ends []int, key []byte, v reflect.Value) ([]byte, []int, error) {
	var err error
	switch v.Kind() {
	case reflect.Invalid:
		return buf, ends, nil
	case reflect.Pointer:
		if v.IsNil() {
			return buf, ends, nil
		}
		return appendLeaves(buf, ends, key, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			field := appendLower(append(key, '.'), t.Field(i).Name)
			if buf, ends, err = appendLeaves(buf, ends, field, v.Field(i)); err != nil {
				return nil, nil, err
			}
		}
		return buf, ends, nil
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return buf, ends, nil
		}
		for i := 0; i < v.Len(); i++ {
			elem := strconv.AppendInt(append(key, '.'), int64(i), 10)
			if buf, ends, err = appendLeaves(buf, ends, elem, v.Index(i)); err != nil {
				return nil, nil, err
			}
		}
		return buf, ends, nil
	}
	buf = append(buf, key...)
	ends = append(ends, len(buf))
	switch v.Kind() {
	case reflect.Bool:
		buf = strconv.AppendBool(buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = strconv.AppendInt(buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf = strconv.AppendUint(buf, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		buf = strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	case reflect.String:
		buf = append(buf, v.String()...)
	default:
		return nil, nil, featureKindError(string(key), v.Kind())
	}
	return buf, append(ends, len(buf)), nil
}

// featureKindError reports a value of a kind the feature vector cannot
// encode, at the dotted key path.
func featureKindError(path string, kind reflect.Kind) error {
	return fmt.Errorf("runcache: cannot feature-encode %s (kind %s): the feature vector shares the fingerprint canonicalizer's kind restrictions", path, kind)
}

// appendLower appends strings.ToLower(name) to b.
func appendLower(b []byte, name string) []byte {
	for _, r := range name {
		b = utf8.AppendRune(b, unicode.ToLower(r))
	}
	return b
}
