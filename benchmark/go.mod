module forkbase/benchmark

go 1.21

require forkbase v0.0.0

replace forkbase => ../
