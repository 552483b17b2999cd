// Package api is the public-API lister's fixture: Outer embeds an engine
// through an unexported alias, as forkbase.DB does, and Handle is an alias.
package api

import "api/inner"

type (
	engine = inner.Engine
	Outer  struct {
		*engine
		Label string
	}
	Handle = inner.Handle
)

func (o *Outer) Close() error { return nil }

func New(h Handle) *Outer { return &Outer{Label: h.String()} }

const Limit = 3

var Default Handle
