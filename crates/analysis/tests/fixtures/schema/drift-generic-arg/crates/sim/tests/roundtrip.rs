//! Test files are the evidence that a wire type is tested: naming `Frame`
//! here keeps the only finding of this tree the drift it is about.

#[test]
fn frame_round_trips() {
    let frame = Frame::Ack(1);
    assert_eq!(from_frame::<Frame>(&to_frame(&frame)), Ok(frame));
}
