package inner

type Engine struct{}

func (*Engine) Run(n int) error { return nil }
func (Engine) Name() string     { return "engine" }

type Handle struct{ ID, secret int }

func (h Handle) String() string { return "handle" }
