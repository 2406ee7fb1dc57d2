let mis = Fastpath.to_program Fastpath.luby_mis
