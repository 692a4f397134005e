//! Test files are the evidence that a wire type is tested: naming `Frame`
//! here is what keeps this tree's declaration off the `wire-untested`
//! report (the `untested` fixture is this tree without this file).

#[test]
fn frame_round_trips() {
    let frame = Frame { seq: 7, ack: 1 };
    assert_eq!(from_frame::<Frame>(&to_frame(&frame)), Ok(frame));
}
