"""ISS unit tests: arithmetic, control flow, stack, traps, devices."""

import pytest

from repro.synthesis.assembler import assemble
from repro.synthesis.iss import ISS, ISSError
from repro.synthesis import isa


def run(source, max_cycles=100_000, devices=None):
    iss = ISS(assemble(source), devices=devices)
    iss.run(max_cycles=max_cycles)
    return iss


def test_arithmetic_and_flags():
    iss = run(
        """
        _start:
            ldi r1, 7
            ldi r2, 5
            add r3, r1, r2
            sub r4, r2, r1
            mul r5, r1, r2
            div r6, r1, r2
            halt
        """
    )
    assert iss.regs[3] == 12
    assert isa.to_signed(iss.regs[4]) == -2
    assert iss.regs[5] == 35
    assert iss.regs[6] == 1


def test_division_truncates_toward_zero():
    iss = run(
        """
        _start:
            ldi r1, -7
            ldi r2, 2
            div r3, r1, r2
            halt
        """
    )
    assert isa.to_signed(iss.regs[3]) == -3


def test_division_by_zero_raises():
    with pytest.raises(ISSError):
        run(
            """
            _start:
                ldi r1, 1
                ldi r2, 0
                div r3, r1, r2
                halt
            """
        )


def test_loop_and_branches():
    iss = run(
        """
        ; sum 1..10 into r2
        _start:
            ldi r1, 10
            ldi r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            bgt loop
            halt
        """
    )
    assert iss.regs[2] == 55


def test_memory_load_store():
    iss = run(
        """
        .org 0x100
        _start:
            ldi r1, 0x300
            ldi r2, 42
            st r2, [r1 + 2]
            ld r3, [r1 + 2]
            halt
        """
    )
    assert iss.regs[3] == 42
    assert iss.memory[0x302] == 42


def test_stack_push_pop_and_calls():
    iss = run(
        """
        _start:
            ldi sp, 0x800
            ldi r1, 11
            push r1
            ldi r1, 0
            call double
            pop r3
            halt
        double:
            ld r2, [sp]       ; the return-address slot is below args
            pop r4            ; actually pops our arg? no - demonstrate
            push r4
            ret
        """
    )
    # call does not touch the stack (link register), so the pushed 11
    # is still on top and pop r3 retrieves it
    assert iss.regs[3] == 11


def test_cycle_costs_accumulate():
    iss = run(
        """
        _start:
            nop          ; 1
            mul r1, r1, r1 ; 2
            halt         ; 1
        """
    )
    assert iss.cycles == 4
    assert iss.instructions == 3


def test_console_and_halt_mmio():
    iss = run(
        """
        .equ CONSOLE, 0xFF02
        .equ HALTREG, 0xFF03
        _start:
            ldi r1, CONSOLE
            ldi r2, 123
            st r2, [r1]
            ldi r2, 7
            ldi r1, HALTREG
            st r2, [r1]
            nop            ; never executed
        """
    )
    assert [v for _, v in iss.console] == [123]
    assert iss.halted
    assert iss.exit_code == 7


def test_timer_interrupt_vector():
    iss = run(
        """
        .equ TIMER, 0xFF00
        .org 0x03
        .word timer_isr
        .org 0x100
        _start:
            ldi sp, 0x800
            ldi r5, 0
            ldi r1, TIMER
            ldi r2, 50
            st r2, [r1]      ; period 50 cycles
            ei
        spin:
            cmpi r5, 3
            blt spin
            halt
        timer_isr:
            addi r5, r5, 1
            iret
        """,
        max_cycles=2000,
    )
    assert iss.regs[5] == 3
    assert iss.halted


def test_syscall_trap_and_return():
    iss = run(
        """
        .org 0x02
        .word trap
        .org 0x100
        _start:
            ldi sp, 0x800
            ldi r2, 20
            syscall 9
            mov r6, r2
            halt
        trap:
            ; syscall number is placed in r1 by the core
            add r2, r2, r1   ; r2 = 20 + 9
            iret
        """
    )
    assert iss.regs[6] == 29
    assert iss.syscall_counts == {9: 1}


def test_interrupts_masked_until_ei():
    iss = run(
        """
        .org 0x04
        .word ext_isr
        .org 0x100
        _start:
            ldi sp, 0x800
            ldi r5, 0
            nop
            nop
            halt
        ext_isr:
            addi r5, r5, 1
            iret
        """
    )
    # IRQ raised before run; IE never set -> never serviced
    iss2 = ISS(assemble("_start: halt"))
    iss2.raise_irq(isa.IRQ_EXTERNAL)
    iss2.run()
    assert iss2.halted
    assert iss.regs[5] == 0


def test_external_interrupt_serviced_with_ei():
    prog = assemble(
        """
        .org 0x04
        .word ext_isr
        .org 0x100
        _start:
            ldi sp, 0x800
            ei
        spin:
            cmpi r5, 1
            blt spin
            halt
        ext_isr:
            ldi r5, 1
            iret
        """
    )
    iss = ISS(prog)
    iss.run(max_cycles=20)  # let it spin a little
    iss.raise_irq(isa.IRQ_EXTERNAL)
    iss.run(max_cycles=1000)
    assert iss.halted
    assert iss.regs[5] == 1


def test_unmapped_device_raises():
    with pytest.raises(ISSError):
        run(
            """
            _start:
                ldi r1, 0xFF80
                ld r2, [r1]
            """
        )


def test_pc_into_data_raises():
    with pytest.raises(ISSError):
        run(
            """
            _start:
                jmp data
            data:
                .word 99
            """
        )


def test_custom_device_read_write():
    class Latch:
        def __init__(self):
            self.value = 5

        def read(self, iss):
            return self.value

        def write(self, iss, value):
            self.value = value * 2

    latch = Latch()
    iss = run(
        """
        .equ DEV, 0xFF10
        _start:
            ldi r1, DEV
            ld r2, [r1]       ; 5
            st r2, [r1]       ; latch = 10
            ld r3, [r1]       ; 10
            halt
        """,
        devices={0xFF10: latch},
    )
    assert iss.regs[2] == 5
    assert iss.regs[3] == 10


# -- overwritten code ---------------------------------------------------
# The ISS decodes each instruction word once and re-uses the decoding,
# so every way of overwriting code must be seen at the next fetch.

COUNT_LOOP = """
    _start:
        ldi r1, 0
        ldi r3, 50
    loop:
        addi r1, r1, 1
        subi r3, r3, 1
        bgt loop
        halt
    """


def _count_loop_after_ten_iterations():
    program = assemble(COUNT_LOOP)
    iss = ISS(program)
    iss.run(max_cycles=40)  # ldi, ldi, 9 loops of 4 cycles, addi, subi
    assert (iss.regs[1], iss.regs[3]) == (10, 40)
    return iss, program.symbol("loop")


def test_poked_instruction_executes_after_decoding():
    iss, loop = _count_loop_after_ten_iterations()
    iss.memory[loop] = ("addi", (1, 1, 100))
    iss.run()
    assert iss.halted
    assert iss.regs[1] == 10 + 40 * 100


def test_poked_data_word_raises_at_fetch():
    iss, loop = _count_loop_after_ten_iterations()
    iss.memory[loop] = 7
    with pytest.raises(ISSError, match=r"^pc=0x0102: not an instruction \(7\)$"):
        iss.run()
    assert iss.regs[1] == 10


def test_device_poke_mid_run_executes_new_instruction():
    class Patcher:
        def write(self, iss, value):
            iss.memory[value] = ("addi", (1, 1, 100))

    iss = run(
        """
        .equ DEV, 0xFF10
        _start:
            ldi r1, 0
            ldi r3, 4
            ldi r4, DEV
            ldi r5, loop
        loop:
            addi r1, r1, 1
            subi r3, r3, 1
            cmpi r3, 2
            bne skip
            st r5, [r4]     ; patch the loop head from now on
        skip:
            cmpi r3, 0
            bgt loop
            halt
        """,
        devices={0xFF10: Patcher()},
    )
    assert iss.halted
    assert iss.regs[1] == 1 + 1 + 100 + 100


def test_program_store_over_code_raises_at_fetch():
    with pytest.raises(ISSError, match=r"^pc=0x0103: not an instruction \(0\)$"):
        run(
            """
            _start:
                ldi r1, 0
                ldi r3, 5
                ldi r4, loop
            loop:
                addi r1, r1, 1
                subi r3, r3, 1
                bgt loop
                st r0, [r4]     ; overwrite the loop head with a data word
                jmp loop
            """
        )


def test_fault_while_stacking_an_interrupt_keeps_exact_counters():
    prog = assemble(
        """
        .equ TIMER, 0xFF00
        _start:
            ldi sp, 0xFF81  ; the flags push lands on an unmapped device
            ldi r1, TIMER
            ldi r2, 20
            st r2, [r1]     ; first tick at cycle 5 + 20
            ei
        spin:
            nop
            jmp spin
        """
    )
    iss = ISS(prog)
    with pytest.raises(ISSError, match="write to unmapped device 0xff80"):
        iss.run()
    # 5 set-up instructions, then 6 nop/jmp rounds and a nop up to cycle 25
    assert (iss.instructions, iss.cycles) == (18, 25)
    assert iss.pc == prog.symbol("spin") + 1
