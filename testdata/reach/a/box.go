package a

// Box's Get is reached through the instance Box[int].
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func (b *Box[T]) Put(v T) { b.v = v }
