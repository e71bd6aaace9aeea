"""Tests for the textual assembler / disassembler."""

import pytest

from repro.errors import AssemblerError
from repro.isa import (
    InstructionChain,
    MemId,
    ProgramBuilder,
    ScalarReg,
    format_program,
    parse_program,
)


SAMPLE = """
# one GRU-ish step
s_wr Rows, 2
s_wr Columns, 2
loop 3 {
    v_rd NetQ
    v_wr InitialVrf, 0
    end_chain
    v_rd InitialVrf, 0
    mv_mul 0
    vv_add 1
    v_sigm
    v_wr MultiplyVrf, 2
    end_chain
}
"""


class TestParse:
    def test_sample_parses(self):
        program = parse_program(SAMPLE)
        assert sum(isinstance(e, InstructionChain)
                   for e in program.events()) == 6

    def test_scalar_writes_parsed(self):
        program = parse_program("s_wr Rows, 4\n")
        item = program.items[0]
        assert item.reg is ScalarReg.Rows and item.value == 4

    def test_comments_ignored(self):
        program = parse_program(
            "v_rd NetQ  // inline\n# whole line\nv_wr NetQ\n")
        assert program.static_chain_count() == 1

    def test_symbolic_loop_count(self):
        program = parse_program(
            "loop steps {\n v_rd NetQ\n v_wr NetQ\n}\n")
        assert sum(isinstance(e, InstructionChain)
                   for e in program.events({"steps": 5})) == 5

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            parse_program("v_frobnicate 3\n")

    def test_unknown_memory(self):
        with pytest.raises(AssemblerError):
            parse_program("v_rd Nowhere, 3\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            parse_program("mv_mul 1, 2\n")

    def test_non_integer_index(self):
        with pytest.raises(AssemblerError):
            parse_program("mv_mul banana\n")

    def test_unclosed_loop(self):
        with pytest.raises(AssemblerError):
            parse_program("loop 3 {\n v_rd NetQ\n v_wr NetQ\n")

    def test_unmatched_close(self):
        with pytest.raises(AssemblerError):
            parse_program("}\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(AssemblerError, match="line 2"):
            parse_program("v_rd NetQ\nmv_mul x\nv_wr NetQ\n")


class TestFormat:
    def test_format_then_parse_is_identity(self):
        program = parse_program(SAMPLE, name="sample")
        again = parse_program(format_program(program), name=program.name)
        assert format_program(again) == format_program(program)

    def test_format_contains_loop_braces(self):
        text = format_program(parse_program(SAMPLE))
        assert "loop 3 {" in text and "}" in text

    def test_builder_program_formats(self):
        b = ProgramBuilder("p")
        b.set_rows(2)
        with b.loop("steps"):
            b.v_rd(MemId.NetQ)
            b.mv_mul(0)
            b.v_wr(MemId.NetQ)
        text = format_program(b.build())
        assert "s_wr Rows, 2" in text
        assert "loop steps {" in text
        assert "mv_mul 0" in text

    def test_compiled_model_program_roundtrips(self):
        from repro.compiler.lowering import compile_rnn_shape
        from repro.config import NpuConfig
        cfg = NpuConfig(name="t", tile_engines=2, lanes=4, native_dim=16,
                        mrf_size=128)
        compiled = compile_rnn_shape("lstm", 24, cfg)
        again = parse_program(format_program(compiled.program),
                              name=compiled.program.name)
        assert (format_program(again)
                == format_program(compiled.program))


class TestAssemblerProperty:
    def test_random_programs_roundtrip(self):
        """Programs generated from random (valid) chain structures
        survive format -> parse -> format."""
        import random

        from repro.isa import MemId

        rnd = random.Random(7)
        for trial in range(25):
            b = ProgramBuilder(f"rand{trial}")
            for _ in range(rnd.randint(1, 6)):
                if rnd.random() < 0.3:
                    b.s_wr(ScalarReg.Rows, rnd.randint(1, 8))
                b.v_rd(MemId.InitialVrf, rnd.randint(0, 31))
                if rnd.random() < 0.5:
                    b.mv_mul(rnd.randint(0, 15))
                if rnd.random() < 0.5:
                    b.vv_add(rnd.randint(0, 31))
                if rnd.random() < 0.5:
                    b.v_tanh()
                if rnd.random() < 0.4:
                    b.vv_mul(rnd.randint(0, 31))
                b.v_wr(MemId.AddSubVrf, rnd.randint(0, 31))
            program = b.build()
            again = parse_program(format_program(program),
                                  name=program.name)
            assert format_program(again) == format_program(program)
