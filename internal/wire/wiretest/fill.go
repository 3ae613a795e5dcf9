// Package wiretest supports completeness checks for the hand-written
// record codecs built on internal/wire. Fill gives every exported field of
// a record a distinct non-zero value, so a round trip through a codec that
// drops or swaps a field no longer compares equal to the original — a
// check that needs no update when a field is added, unlike a hand-filled
// golden record.
package wiretest

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
)

// Fill sets every exported field reachable from ptr, through structs,
// pointers, slices, arrays and maps, to a distinct non-zero value (values
// of 8- and 16-bit fields wrap around within their range): each
// slice and map gets two elements, each pointer a new value. Fields named
// in skip, as "Type.Field", stay zero; they are runtime wiring a codec
// does not persist. Interface, func and channel values stay nil.
func Fill(ptr any, skip ...string) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic("wiretest: Fill needs a non-nil pointer")
	}
	f := filler{skip: make(map[string]bool, len(skip))}
	for _, s := range skip {
		f.skip[s] = true
	}
	f.fill(v.Elem())
}

type filler struct {
	n    int
	skip map[string]bool
}

// next returns the next value in the sequence, wrapped into [1, max].
func (f *filler) next(max int) int {
	f.n++
	return (f.n-1)%max + 1
}

// maxFor is the largest value of the sequence a field of kind k holds.
func maxFor(k reflect.Kind) int {
	switch k {
	case reflect.Int8:
		return 1<<7 - 1
	case reflect.Uint8:
		return 1<<8 - 1
	case reflect.Int16:
		return 1<<15 - 1
	case reflect.Uint16:
		return 1<<16 - 1
	}
	return 1 << 30
}

var addrType = reflect.TypeOf(netip.Addr{})

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.next(maxFor(v.Kind()))))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next(maxFor(v.Kind()))))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next(1<<20)) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next(1<<30)))
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		m := reflect.MakeMapWithSize(v.Type(), 2)
		for range 2 {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		if v.Type() == addrType {
			n := f.next(1<<16 - 1)
			v.Set(reflect.ValueOf(netip.AddrFrom4([4]byte{10, 0, byte(n >> 8), byte(n)})))
			return
		}
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if !sf.IsExported() || f.skip[t.Name()+"."+sf.Name] {
				continue
			}
			f.fill(v.Field(i))
		}
	}
}

// Diff returns, sorted, the paths of the exported leaves at which got
// differs from want: a nil-ness, length or value mismatch, with struct
// fields as ".Name", elements as "[i]" and map entries as "[key]".
func Diff(want, got any) []string {
	var out []string
	diff(reflect.ValueOf(want), reflect.ValueOf(got), "", &out)
	sort.Strings(out)
	return out
}

func diff(a, b reflect.Value, path string, out *[]string) {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				*out = append(*out, path)
			}
			return
		}
		diff(a.Elem(), b.Elem(), path, out)
	case reflect.Struct:
		if a.Type() == addrType {
			if a.Interface() != b.Interface() {
				*out = append(*out, path)
			}
			return
		}
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				diff(a.Field(i), b.Field(i), path+"."+t.Field(i).Name, out)
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			*out = append(*out, path)
			return
		}
		for i := 0; i < a.Len(); i++ {
			diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			*out = append(*out, path)
			return
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				*out = append(*out, fmt.Sprintf("%s[%v]", path, k))
				continue
			}
			diff(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k), out)
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			*out = append(*out, path)
		}
	}
}
