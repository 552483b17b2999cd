//go:build go1.22

package forkbase_test

import "go/types"

// unaliasTop returns the type an alias denotes (t itself for any other type).
func unaliasTop(t types.Type) types.Type { return types.Unalias(t) }
