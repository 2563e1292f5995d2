// Package hotfix is uopvet fixture corpus for the hotpath analyzer: only
// functions carrying //uopvet:hotpath are checked.
package hotfix

import "fmt"

type item struct{ id int }

// HotSprintf formats on a hot path.
//
//uopvet:hotpath
func HotSprintf(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt\.Sprintf allocates on every call`
}

// HotConcat grows a string per iteration.
//
//uopvet:hotpath
func HotConcat(names []string) string {
	out := ""
	for _, n := range names {
		out += n // want `string \+= in a loop inside hot function HotConcat`
	}
	return out
}

// HotConcatExpr concatenates inside the loop body expression.
//
//uopvet:hotpath
func HotConcatExpr(names []string) []string {
	res := make([]string, 0, len(names))
	for _, n := range names {
		res = append(res, "x"+n) // want `string concatenation in a loop inside hot function HotConcatExpr`
	}
	return res
}

// HotCompositeAppend appends struct values and slice literals per
// iteration: the struct is copied into out's backing (nothing beyond the
// append's growth), while each slice literal allocates its own array.
//
//uopvet:hotpath
func HotCompositeAppend(ids []int) ([]item, [][]int) {
	var out []item
	var groups [][]int
	for _, id := range ids {
		out = append(out, item{id: id})
		groups = append(groups, []int{id}) // want `appending a slice or map literal in a loop inside hot function HotCompositeAppend`
	}
	return out, groups
}

// HotPtrComposite heap-allocates per iteration.
//
//uopvet:hotpath
func HotPtrComposite(ids []int) []*item {
	var out []*item
	for _, id := range ids {
		out = append(out, &item{id: id}) // want `&composite literal in a loop inside hot function HotPtrComposite`
	}
	return out
}

// ColdSprintf has no directive, so the same body reports nothing.
func ColdSprintf(n int) string {
	return fmt.Sprintf("n=%d", n)
}

// HotIgnored is the suppressed case.
//
//uopvet:hotpath
func HotIgnored(n int) string {
	return fmt.Sprintf("n=%d", n) //uopvet:ignore hotpath -- fixture: suppressed case
}
