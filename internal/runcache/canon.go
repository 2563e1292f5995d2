// Package runcache turns each experiment design point into a
// content-addressed, reusable artifact: a canonical fingerprint over
// everything that determines a simulation's outcome, an in-process memo
// table that guarantees each fingerprint is simulated at most once per
// process, and an optional on-disk blob store that persists results across
// invocations. The experiment drivers submit points and render results;
// the engine decides whether a point is simulated, replayed from memory,
// or loaded from disk.
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"sync"
)

// Fingerprint is the content address of one design point: a hex SHA-256
// over the canonical encoding of every input that determines the result.
type Fingerprint string

// Short returns an abbreviated fingerprint for log lines.
func (f Fingerprint) Short() string {
	if len(f) > 12 {
		return string(f[:12])
	}
	return string(f)
}

// Key fingerprints an ordered list of parts. Each part is canonically
// encoded by reflection: structs serialize field-by-field in declaration
// order with field names, so the encoding is exhaustive by construction —
// a new field on pipeline.Config changes fingerprints automatically. Kinds
// whose encoding would be non-deterministic or lossy (maps, funcs,
// channels, interfaces) are rejected with an error naming the offending
// field, which is the guard that keeps the fingerprint honest as config
// structs grow. The field path in that error is built only on failure:
// each enclosing struct field and slice index prepends its segment as the
// error unwinds, so a successful Key formats no strings. All parts are
// encoded into one pooled buffer and hashed once.
func Key(parts ...any) (Fingerprint, error) {
	bp := canonBufs.Get().(*[]byte)
	defer canonBufs.Put(bp)
	buf := (*bp)[:0]
	for i, p := range parts {
		buf = append(buf, "\x00part"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ':')
		var err *canonError
		if buf, err = appendCanon(buf, reflect.ValueOf(p)); err != nil {
			err.prepend("part[" + strconv.Itoa(i) + "]")
			return "", err
		}
	}
	*bp = buf
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return Fingerprint(out[:]), nil
}

// canonBufs pools the buffer Key encodes every part into before hashing
// the whole encoding at once (the digest of the concatenation equals the
// part-by-part digest, so addresses are unchanged).
var canonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// canonError is an unsupported kind met while encoding. path starts as
// the empty string at the offending value and grows outward, one segment
// per enclosing field or index, as appendCanon returns.
type canonError struct {
	path string
	kind reflect.Kind
}

func (e *canonError) prepend(seg string) { e.path = seg + e.path }

func (e *canonError) Error() string {
	return fmt.Sprintf("runcache: cannot fingerprint %s (kind %s): add explicit handling or remove the field",
		e.path, e.kind)
}

// appendCanon writes a deterministic, self-delimiting encoding of v. The
// encoding reads values through kind-specific accessors so unexported
// struct fields are covered too.
func appendCanon(buf []byte, v reflect.Value) ([]byte, *canonError) {
	if !v.IsValid() {
		return append(buf, "nil;"...), nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, "b1;"...), nil
		}
		return append(buf, "b0;"...), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, v.Int(), 10)
		return append(buf, ';'), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		buf = append(buf, 'u')
		buf = strconv.AppendUint(buf, v.Uint(), 10)
		return append(buf, ';'), nil
	case reflect.Float32, reflect.Float64:
		// Hex float form is exact: distinct bit patterns (including -0 vs
		// +0) encode distinctly, so fingerprints never alias two configs
		// that simulate differently.
		buf = append(buf, 'f')
		buf = strconv.AppendFloat(buf, v.Float(), 'x', -1, 64)
		return append(buf, ';'), nil
	case reflect.String:
		s := v.String()
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(s)), 10)
		buf = append(buf, ':')
		buf = append(buf, s...)
		return append(buf, ';'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, "nil;"...), nil
		}
		return appendCanon(buf, v.Elem())
	case reflect.Struct:
		t := v.Type()
		buf = append(buf, '{')
		buf = append(buf, t.Name()...)
		buf = append(buf, ':')
		var err *canonError
		for i := 0; i < t.NumField(); i++ {
			name := t.Field(i).Name
			buf = append(buf, name...)
			buf = append(buf, '=')
			if buf, err = appendCanon(buf, v.Field(i)); err != nil {
				err.prepend("." + name)
				return nil, err
			}
		}
		return append(buf, '}'), nil
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return append(buf, "nil;"...), nil
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(v.Len()), 10)
		buf = append(buf, ':')
		var err *canonError
		for i := 0; i < v.Len(); i++ {
			if buf, err = appendCanon(buf, v.Index(i)); err != nil {
				err.prepend("[" + strconv.Itoa(i) + "]")
				return nil, err
			}
		}
		return append(buf, ']'), nil
	default:
		return nil, &canonError{kind: v.Kind()}
	}
}
