//go:build !simtorder

package simt

// reordered is false in the default build: launches, warps and lanes run
// in canonical order. order_simtorder.go sets it under the simtorder
// build tag.
const reordered = false
