module whilepar/benchmark

go 1.22

require whilepar v0.0.0

replace whilepar => ../
