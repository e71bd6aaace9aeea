"""Tests for NpuProgram and ProgramBuilder (loops, bindings, macros)."""

import pytest

from repro.errors import ChainError, IsaError
from repro.isa import InstructionChain, Loop, MemId, ProgramBuilder, ScalarReg, \
    SetScalar


def chains(program, bindings=None):
    """The chains of the program's dynamic event stream."""
    return [e for e in program.events(bindings)
            if isinstance(e, InstructionChain)]


def simple_chain_program(steps=3):
    b = ProgramBuilder("p")
    with b.loop(steps):
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.NetQ)
    return b.build()


class TestBuilder:
    def test_implicit_chain_finalization_on_new_read(self):
        b = ProgramBuilder("p")
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.InitialVrf, 0)
        b.v_rd(MemId.InitialVrf, 0)
        b.v_relu()
        b.v_wr(MemId.NetQ)
        program = b.build()
        assert len(chains(program)) == 2

    def test_multicast_does_not_split_chain(self):
        b = ProgramBuilder("p")
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.InitialVrf, 0)
        b.v_wr(MemId.NetQ)
        program = b.build()
        assert program.static_chain_count() == 1

    def test_s_wr_flushes_pending_chain(self):
        b = ProgramBuilder("p")
        b.v_rd(MemId.NetQ)
        b.v_wr(MemId.NetQ)
        b.s_wr(ScalarReg.Rows, 2)
        program = b.build()
        items = program.items
        assert isinstance(items[0], InstructionChain)
        assert isinstance(items[1], SetScalar)

    def test_set_rows_columns_sugar(self):
        b = ProgramBuilder("p")
        b.set_rows(4).set_columns(5)
        program = b.build()
        assert program.items[0] == SetScalar(ScalarReg.Rows, 4)
        assert program.items[1] == SetScalar(ScalarReg.Columns, 5)

    def test_invalid_chain_reported_with_program_name(self):
        b = ProgramBuilder("myprog")
        b.v_rd(MemId.NetQ)
        b.v_relu()
        with pytest.raises(ChainError, match="myprog"):
            b.build()

    def test_nested_loops(self):
        b = ProgramBuilder("p")
        with b.loop(2):
            with b.loop(3):
                b.v_rd(MemId.NetQ)
                b.v_wr(MemId.NetQ)
        program = b.build()
        assert len(chains(program)) == 6

    def test_negative_loop_count_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(IsaError):
            with b.loop(-1):
                pass

    def test_method_chaining_style(self):
        b = ProgramBuilder("p")
        b.v_rd(MemId.InitialVrf, 0).mv_mul(0).vv_add(0).v_sigm() \
            .v_wr(MemId.MultiplyVrf, 0)
        assert b.build().static_chain_count() == 1


class TestProgram:
    def test_loop_unrolls_in_events(self):
        program = simple_chain_program(steps=4)
        assert len(chains(program)) == 4

    def test_runtime_binding(self):
        b = ProgramBuilder("p")
        with b.loop("steps"):
            b.v_rd(MemId.NetQ)
            b.v_wr(MemId.NetQ)
        program = b.build()
        assert len(chains(program, {"steps": 7})) == 7
        assert len(chains(program, {"steps": 0})) == 0

    def test_missing_binding_raises(self):
        b = ProgramBuilder("p")
        with b.loop("steps"):
            b.v_rd(MemId.NetQ)
            b.v_wr(MemId.NetQ)
        program = b.build()
        with pytest.raises(IsaError):
            chains(program)

    def test_bad_binding_value_raises(self):
        b = ProgramBuilder("p")
        with b.loop("n"):
            b.v_rd(MemId.NetQ)
            b.v_wr(MemId.NetQ)
        program = b.build()
        with pytest.raises(IsaError):
            chains(program, {"n": -3})

    def test_loop_resolve_count(self):
        loop = Loop(5, ())
        assert loop.resolve_count() == 5
        loop = Loop("t", ())
        assert loop.resolve_count({"t": 9}) == 9

    def test_repr(self):
        program = simple_chain_program(steps=2)
        assert "p" in repr(program)


class TestPaperLstmListing:
    """The Section IV-C LSTM listing builds as a legal program."""

    def build(self):
        b = ProgramBuilder("lstm_listing")
        with b.loop("steps"):
            b.v_rd(MemId.NetQ)
            b.v_wr(MemId.InitialVrf, 0)       # ivrf_xt
            # xWf = xt * Wf + bf
            b.v_rd(MemId.InitialVrf, 0)
            b.mv_mul(0)                        # mrf_Wf
            b.vv_add(0)                        # asvrf_bf
            b.v_wr(MemId.AddSubVrf, 4)         # asvrf_xWf
            # f gate -> multiply by c_prev
            b.v_rd(MemId.InitialVrf, 1)        # ivrf_h_prev
            b.mv_mul(25)                       # mrf_Uf
            b.vv_add(4)                        # asvrf_xWf
            b.v_sigm()
            b.vv_mul(0)                        # mulvrf_c_prev
            b.v_wr(MemId.AddSubVrf, 8)         # asvrf_ft_mod
            # c gate -> store ct and c_prev
            b.v_rd(MemId.InitialVrf, 1)
            b.mv_mul(50)                       # mrf_Uc
            b.vv_add(5)                        # asvrf_xWc
            b.v_tanh()
            b.vv_mul(1)                        # mulvrf_it
            b.vv_add(8)                        # asvrf_ft_mod
            b.v_wr(MemId.MultiplyVrf, 0)       # mulvrf_c_prev
            b.v_wr(MemId.InitialVrf, 2)        # ivrf_ct
            # produce ht, store and send to network
            b.v_rd(MemId.InitialVrf, 2)
            b.v_tanh()
            b.vv_mul(2)                        # mulvrf_ot
            b.v_wr(MemId.InitialVrf, 1)        # ivrf_h_prev
            b.v_wr(MemId.NetQ)
        return b.build()

    def test_builds_and_counts(self):
        program = self.build()
        assert program.static_chain_count() == 5

    def test_every_chain_fits_two_mfus(self):
        for chain in chains(self.build(), {"steps": 1}):
            chain.assign_function_units(2)
