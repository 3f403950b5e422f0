// Package other is the negative fixture: its Set is not values.Set, so
// comparing it is not setequal's business.
package other

type Set struct{ d *[]string }

func Same(a, b Set) bool {
	return a == b
}
