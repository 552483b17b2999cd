//go:build !go1.22

package forkbase_test

import "go/types"

// unaliasTop is the identity before go1.22, whose go/types has no alias
// nodes.
func unaliasTop(t types.Type) types.Type { return t }
